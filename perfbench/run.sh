#!/usr/bin/env bash
# Build hsp_served and the benchmark from this checkout, then run one
# workload with the HSP_* tuning knobs cleared (shipped defaults).
#
#   bash perfbench/run.sh --workload serve-mixed --seed 1 --seconds 20 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib/service ] || [ ! -f bin/hsp_served.ml ]; then
  echo "perfbench: run from an hsp checkout (lib/, bin/ and dune-project are missing)" >&2
  exit 2
fi
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)" || true
# Keep every build artefact inside the checkout (no shared dune cache).
DUNE_CACHE=disabled dune build --root . ./bin/hsp_served.exe ./perfbench/main.exe 1>&2
exec env -u HSP_JOBS -u HSP_BACKEND -u HSP_FUSE -u HSP_SCHED \
  ./_build/default/perfbench/main.exe "$@"
