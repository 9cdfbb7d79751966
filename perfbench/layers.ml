(* Per-layer metrics, computed from the three sources a run has: the
   replies of a service window (their [metrics] delta and [batched]
   field), [stats] replies taken before and after it, and the
   [Runner] reports of in-process solves. *)

open Hsp_service

type metric = string * float * string  (* name, value, unit *)

let num = Serve.num
let sum_by f xs = List.fold_left (fun acc x -> acc +. f x) 0. xs
let per n x = if n = 0 then Float.nan else x /. float_of_int n

(* Layers seen through the service: ledger phases and counters from the
   per-request deltas, cache and prep counters from [stats] diffs,
   executor queueing, wire and JSON costs. *)
let of_window ~idle_stats_rtt (w : Serve.window) : metric list =
  let ok =
    List.filter_map (fun (o : Serve.outcome) -> Option.map (fun r -> (o, r)) o.reply) w.outcomes
  in
  let n = List.length ok in
  let m r key = num r [ "metrics"; key ] in
  let mean_field key = per n (sum_by (fun (_, r) -> m r key) ok) in
  let delta keys = num w.stats_after keys -. num w.stats_before keys in
  let phase_sum r =
    match Jsonv.member "metrics" r with
    | Some (Jsonv.Obj fields) ->
        List.fold_left
          (fun acc (k, v) ->
            match Jsonv.to_float_opt v with
            | Some x when String.starts_with ~prefix:"sec_" k -> acc +. x
            | _ -> acc)
          0. fields
    | _ -> 0.
  in
  let queries = sum_by (fun (_, r) -> num r [ "quantum_queries" ]) ok in
  let samples = List.filter (fun ((o : Serve.outcome), _) -> not o.op.solve) ok in
  let hits = delta [ "cache"; "hits" ] and misses = delta [ "cache"; "misses" ] in
  [
    ("metrics.fourier_s", mean_field "sec_fourier", "s/op");
    ("metrics.measure_s", mean_field "sec_measure", "s/op");
    ("metrics.classical_s", mean_field "sec_classical", "s/op");
    ("metrics.dft_fibres", mean_field "dft_fibres", "1/op");
    ("metrics.pruned_amps", mean_field "pruned_amps", "1/op");
    ("coset_state.prep_s", per n (delta [ "ledger"; "sec_sample-prep" ]), "s/op");
    ("coset_state.preps", per n (delta [ "ledger"; "sampler_preps" ]), "1/op");
    ( "coset_state.visits_per_draw",
      sum_by (fun (_, r) -> m r "coset_visits") ok /. queries,
      "count" );
    ("cache.hit_ratio", hits /. (hits +. misses), "ratio");
    ("cache.evictions_per_op", per n (delta [ "cache"; "evictions" ]), "1/op");
    ("cache.bytes_max", float_of_int w.bytes_max /. 1048576., "MB");
    ( "service.queue_io_ms_p50",
      1e3 *. Stats.median (List.map (fun ((o : Serve.outcome), r) -> o.rtt -. phase_sum r) ok),
      "ms" );
    ( "service.batch_size_mean",
      per (List.length samples) (sum_by (fun (_, r) -> num r [ "batched" ]) samples),
      "count" );
    ( "server.rtt_ms_p50",
      1e3 *. Stats.median (List.map (fun ((o : Serve.outcome), _) -> o.rtt) ok),
      "ms" );
    ("server.stats_rtt_us_p50", 1e6 *. idle_stats_rtt, "us");
    ("jsonv.encode_us", 1e6 *. per n (sum_by (fun ((o : Serve.outcome), _) -> o.encode) ok), "us");
    ("jsonv.decode_us", 1e6 *. per n (sum_by (fun ((o : Serve.outcome), _) -> o.decode) ok), "us");
    ( "protocol.reply_bytes",
      per n (sum_by (fun ((o : Serve.outcome), _) -> float_of_int o.reply_bytes) ok),
      "bytes" );
  ]

let phase (s : Quantum.Metrics.snapshot) name =
  Option.value ~default:0. (List.assoc_opt name s.phases)

(* Layers seen through in-process solves. *)
let of_solves (rs : Solve_paper.result list) : metric list =
  let n = List.length rs in
  let mean f = per n (sum_by f rs) in
  let ledger f = mean (fun (r : Solve_paper.result) -> f r.report.Hsp.Runner.metrics) in
  let count f = ledger (fun s -> float_of_int (f s)) in
  let total f = sum_by (fun (r : Solve_paper.result) -> float_of_int (f r)) rs in
  let unattributed (r : Solve_paper.result) =
    r.report.Hsp.Runner.seconds -. Stats.sum (List.map snd r.report.Hsp.Runner.metrics.phases)
  in
  [
    ("metrics.fourier_s", ledger (fun s -> phase s "fourier"), "s/op");
    ("metrics.measure_s", ledger (fun s -> phase s "measure"), "s/op");
    ("metrics.classical_s", ledger (fun s -> phase s "classical"), "s/op");
    ("metrics.dft_fibres", count (fun s -> s.dft_fibres), "1/op");
    ("metrics.pruned_amps", count (fun s -> s.pruned_amps), "1/op");
    ("coset_state.prep_s", ledger (fun s -> phase s "sample-prep"), "s/op");
    ("coset_state.preps", count (fun s -> s.sampler_preps), "1/op");
    ( "coset_state.visits_per_draw",
      total (fun r -> r.report.Hsp.Runner.metrics.coset_visits) /. total (fun r -> r.quantum),
      "count" );
    ("core.unattributed_s", mean unattributed, "s/op");
    ("core.quantum_queries_per_solve", mean (fun r -> float_of_int r.quantum), "count");
    ("core.classical_queries_per_solve", mean (fun r -> float_of_int r.classical), "count");
    ("runner.verify_s", mean (fun r -> r.wall -. r.report.Hsp.Runner.seconds), "s/op");
  ]

(* [primary] wins; [fallback] supplies the names it lacks. *)
let merge primary fallback =
  let known (name, _, _) = List.exists (fun (n, _, _) -> String.equal n name) primary in
  primary @ List.filter (fun m -> not (known m)) fallback

let only prefixes ms =
  List.filter
    (fun (name, _, _) -> List.exists (fun p -> String.starts_with ~prefix:p name) prefixes)
    ms
