(** Pure state simulation of a register of qudits.

    A register is a tuple of wires; wire [i] carries a qudit of
    dimension [dims.(i)].  The joint state is held by one of three
    pluggable backends ({!Backend}):

    - dense — a contiguous complex vector of dimension [prod dims]
      ({!Backend_dense}); exact, exponential in memory, capped at
      {!max_total_dim} amplitudes;
    - sparse — a sorted segment of the nonzero amplitudes only
      ({!Backend_sparse}); cost scales with support size, lifting the
      cap for the structured states the HSP algorithms prepare (coset
      states, subgroup states, their Fourier transforms);
    - symbolic — no amplitudes at all ({!Backend_symbolic}): a
      phase-decorated coset state [(subgroup HNF basis, representative,
      character)] rewritten in closed form under the Abelian DFT and
      measured by uniform subgroup sampling, so [Z_2^200]-shaped
      registers cost O(r^2) per operation.

    The backend is chosen per state at creation: explicitly via
    [?backend], globally via {!Backend.set_default} / the [HSP_BACKEND]
    environment variable, or automatically ([Auto]: dense iff the
    register fits under the cap; never symbolic — see
    {!Backend.resolve}).  The amplitude backends dispatch every
    operation natively.  A symbolic state handles the {!Backend.CORE}
    operations (construction, tensor, full Fourier sweeps, full
    measurement) in closed form and {e demotes} to the sparse backend —
    support materialised, capped at
    {!Backend.Caps.symbolic_materialise}, ledger
    [symbolic_demotions] — when an amplitude-level operation
    ({!apply_wires}, {!apply_basis_map}, {!apply_oracle_add},
    {!probabilities}, partial measurement, a second DFT on the same
    wire) is requested, so downstream code ({!Qft}, {!Circuit},
    {!Coset_state}, the solvers) stays representation-agnostic. *)

type t

val max_total_dim : int
(** Alias of {!Backend.Caps.dense_state}: the dense backend's amplitude
    ceiling, and the pivot of [Auto] backend resolution. *)

val backend : t -> Backend.choice
(** The concrete backend holding this state ([Dense], [Sparse] or
    [Symbolic], never [Auto]). *)

val create : ?backend:Backend.choice -> int array -> t
(** [create dims] is the all-zeros basis state [|0,...,0>].
    @raise Invalid_argument if any dimension is [< 1], a dense backend
    was selected for a register beyond {!max_total_dim}, or [Auto]
    resolution needed a total dimension that overflows (explicit
    sparse/symbolic choices never form the total). *)

val of_basis : ?backend:Backend.choice -> int array -> int array -> t
(** [of_basis dims x] is the basis state [|x>]. *)

val of_amplitudes : ?backend:Backend.choice -> int array -> Linalg.Cvec.t -> t
(** Wraps (a copy of) a full amplitude vector; normalises.  The input
    is inherently dense, so this only accepts registers whose total
    dimension is materialisable; under the symbolic backend it lands on
    sparse.  Prefer {!of_sparse} beyond the cap. *)

val of_sparse :
  ?backend:Backend.choice ->
  ?prune_eps:float ->
  int array ->
  (int array * Linalg.Cx.t) list ->
  t
(** [of_sparse dims entries] builds the normalised superposition with
    the given basis-tuple amplitudes (duplicates are summed).  Defaults
    to the sparse backend even under [Auto] or [Symbolic] — the
    explicit support list is the caller saying the state is sparse —
    and is the amplitude-level constructor usable beyond
    {!max_total_dim}.  [prune_eps] fixes the pruning threshold of this
    state and everything derived from it (default: the current
    {!Backend_sparse.set_prune_epsilon} session value); ignored when
    the state lands on the dense backend.
    @raise Invalid_argument on an empty or zero-norm support. *)

val of_indices :
  ?backend:Backend.choice -> ?prune_eps:float -> int array -> int array -> t
(** [of_indices dims idxs] is the uniform superposition over the given
    pre-{e encoded} basis indices, which must be strictly increasing
    and in range.  The fast path for coset-state construction: the
    sparse backend adopts the array as its sorted segment directly —
    O(|idxs|), no sort, no hashing, no per-entry boxing.  Backend
    default follows {!of_sparse} (sparse even under [Auto]), except
    that under [Symbolic] a segment recognised as a coset
    ({!Backend_symbolic.of_indices_opt}) stays symbolic.  [prune_eps]
    as in {!of_sparse}.
    @raise Invalid_argument on an empty, unsorted or out-of-range
    index array. *)

val of_coset : ?backend:Backend.choice -> Backend_symbolic.Subgroup.t -> rep:int array -> t
(** [of_coset sub ~rep] is the uniform coset state [|rep + H>] — the
    entry point of the symbolic sampling pipeline
    ({!Coset_state.sampler_with_subgroup}).  Defaults to the symbolic
    backend (under [Auto] too: the caller handing us subgroup structure
    {e is} the opt-in); explicit [Dense]/[Sparse] enumerate the coset
    (differential-oracle path, subject to
    {!Backend.Caps.symbolic_materialise} on the subgroup size). *)

val dims : t -> int array
val num_wires : t -> int

val total_dim : t -> int
(** @raise Invalid_argument on a symbolic state whose total dimension
    overflows the integer range. *)

val support_size : t -> int
(** Number of nonzero amplitudes currently stored (for the dense
    backend, the count of nonzero entries; for a symbolic state, the
    subgroup order clamped to [max_int]). *)

val amplitudes : t -> Linalg.Cvec.t
(** The state materialised as a dense copy — an export, not a view of
    backend internals.
    @raise Invalid_argument beyond {!max_total_dim}; use {!amp_at} /
    {!iter_nonzero} there. *)

val amp_at : t -> int -> Linalg.Cx.t
(** Amplitude at a mixed-radix basis index, any backend, any size
    (symbolic: a membership test plus a character evaluation). *)

val iter_nonzero : t -> (int -> Linalg.Cx.t -> unit) -> unit
(** Iterate over the stored nonzero amplitudes (unspecified order;
    symbolic states enumerate their coset, capped at
    {!Backend.Caps.symbolic_materialise}). *)

val to_backend : Backend.choice -> t -> t
(** Convert a state to the given backend (identity if already there;
    [Auto] re-resolves by total dimension, keeping symbolic states
    symbolic when the total is not even formable).  Sparse-to-dense
    raises beyond {!max_total_dim}; amplitude states do not convert
    {e to} symbolic (build them with {!of_coset}). *)

val encode : int array -> int array -> int
(** [encode dims x] is the mixed-radix index of the basis tuple [x]. *)

val decode : int array -> int -> int array
(** Inverse of {!encode}. *)

val tensor : t -> t -> t
(** Symbolic operands stay symbolic (block-diagonal HNF stacking);
    otherwise mixed-backend operands promote to sparse. *)

val uniform : ?backend:Backend.choice -> int array -> t
(** Uniform superposition over all basis states.  Symbolic: the full
    group as subgroup, O(r^2); amplitude backends materialise the full
    support, so the register must fit. *)

val apply_wire : t -> wire:int -> Linalg.Cmat.t -> t
(** Apply a [d x d] unitary to a single wire of dimension [d]. *)

val apply_wires : t -> wires:int list -> Linalg.Cmat.t -> t
(** Apply a unitary acting jointly on the listed wires (in the given
    order, most significant first).  The matrix dimension must be the
    product of the wires' dimensions.  Symbolic states demote. *)

val run_plan : Circuit_plan.t -> t -> t option
(** Execute a compiled circuit plan ({!Circuit_plan.compile}) on a
    dense qubit register in one pass per plan step; ticks [gate_apps]
    once per source gate, as the per-gate {!apply_wires} fold would.
    [None] for sparse/symbolic states, which run circuits gate by gate
    ([Circuit.run] does both).  The caller checks that the state is a
    register of [plan.num_qubits] qubits.
    @raise Invalid_argument if a dense state's size is not
    [2^plan.num_qubits]. *)

val apply_dft : t -> wire:int -> inverse:bool -> t
(** The DFT {!Linalg.Cmat.dft} on one wire, in O(d log d) per populated
    fibre (radix-2 or Bluestein FFT, by dimension) on the amplitude
    backends.  On a symbolic state the wire is marked pending and the
    closed-form rewrite [(H, c, p) -> (H^perp, -p, c)] fires once every
    wire is marked — a full {!Qft.forward} pass costs one annihilator
    solve however large the group. *)

val apply_basis_map : t -> (int array -> int array) -> t
(** Relabel basis states by a bijection on tuples (a classical
    reversible circuit).  The dense backend checks bijectivity in full;
    the sparse backend checks injectivity on the support.  Symbolic
    states demote. *)

val apply_oracle_add : t -> in_wires:int list -> out_wire:int -> f:(int array -> int) -> t
(** The standard oracle [|x>|y> -> |x>|y + f(x) mod d>] where [d] is
    the output wire's dimension and [x] ranges over the values of
    [in_wires].  Symbolic states demote. *)

val probabilities : t -> wires:int list -> float array
(** Marginal outcome distribution of measuring the listed wires, as a
    dense array indexed by the mixed-radix encoding of the outcome over
    those wires' dimensions (so the product of those dimensions must be
    materialisable).  Symbolic states demote. *)

val measure : Random.State.t -> t -> wires:int list -> int array * t
(** Projectively measure the listed wires: returns the outcome tuple
    and the collapsed, renormalised post-measurement state.  The sparse
    backend samples directly off the support; a symbolic state measures
    the {e full} register as one uniform coset draw (O(r^2) for
    [Z_2^200]) and demotes for partial measurement. *)

val measure_all : Random.State.t -> t -> int array

val norm : t -> float

val digest : t -> string
(** Hex digest of the exact stored state: the backend tag, [dims], and
    the IEEE bit patterns of the dense amplitude planes or of the
    sparse segment (basis indices and planes).  Two states share a
    digest iff their stored representations are bit-for-bit equal, so
    unlike a digest of measured outcomes it sees phases.  Determinism
    checks compare it across job counts and schedulers.
    @raise Invalid_argument on a symbolic state (not yet covered). *)

val approx_equal : ?eps:float -> t -> t -> bool
(** Amplitude-wise comparison; works across backends (used by the
    dense/sparse/symbolic equivalence test suite). *)

val pp : Format.formatter -> t -> unit
