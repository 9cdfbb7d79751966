(* One benchmark run: set-up (repeated, median reported), an untraced
   measured window for the end-to-end metrics, or, when traced, an
   untraced reference half, a traced half and the probes for the
   per-layer metrics. *)

type config = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
}

type run = {
  metrics : Layers.metric list;
  attempted : int;
  errors : string list;  (** one per failed op *)
  daemon_flags : string list;
  spans : Spans.t;
}

let setup_reps = 3
let conns = 2
let solve_probe_seconds = 1.5
let service_probe_seconds = 2.0

let e2e ~setup_s ~latencies ~ok ~elapsed ~cpu ~peak_rss_mb =
  [
    ("throughput_ops_per_s", float_of_int ok /. elapsed, "1/s");
    ("latency_p50_ms", 1e3 *. Stats.quantile latencies 0.5, "ms");
    ("latency_p90_ms", 1e3 *. Stats.quantile latencies 0.9, "ms");
    ("cpu_ms_per_op", 1e3 *. cpu /. float_of_int (max ok 1), "ms");
    ("peak_rss_mb", peak_rss_mb, "MB");
    ("setup_s", setup_s, "s");
  ]

(* ---- service workloads ---- *)

let window_errors (w : Serve.window) =
  List.filter_map (fun (o : Serve.outcome) -> o.error) w.outcomes

let window_ok w = List.length w.Serve.outcomes - List.length (window_errors w)

(* A failed op counts as missing every latency limit. *)
let window_latencies (w : Serve.window) =
  List.map
    (fun (o : Serve.outcome) -> if o.error = None then o.latency else Float.infinity)
    w.outcomes

let class_summary (w : Serve.window) =
  let kind (o : Serve.outcome) = o.op.kind in
  List.iter
    (fun k ->
      let lat =
        List.filter_map
          (fun o -> if String.equal (kind o) k then Some o.Serve.latency else None)
          w.outcomes
      in
      Printf.eprintf "class %-16s n=%4d latency mean %8.1f ms  p50 %8.1f ms  p90 %8.1f ms\n" k
        (List.length lat) (1e3 *. Stats.mean lat)
        (1e3 *. Stats.quantile lat 0.5)
        (1e3 *. Stats.quantile lat 0.9))
    (List.sort_uniq String.compare (List.map kind w.outcomes))

(* Send each op once on one connection, checking the reply (cache
   priming). *)
let prime (d : Daemon.t) ops =
  let fd = Daemon.connect_fd d.Daemon.socket in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  List.iter
    (fun (op : Serve.op) ->
      let id = Serve.fresh_id () in
      let payload = Daemon.rpc_raw fd (op.request ~id) in
      match Result.bind (Checks.parse_reply ~id payload) op.check with
      | Ok () -> ()
      | Error e -> failwith ("cache priming: " ^ e))
    ops

let stop_daemon errors d =
  match Daemon.stop d with Ok () -> () | Error e -> errors := ("daemon: " ^ e) :: !errors

(* Spawn + wait for [stats] + priming, [setup_reps] times; all but the
   last daemon are shut down again.  Returns (median seconds, daemon). *)
let repeated_setup ~errors ~flags ~priming =
  let rec go k times =
    let t0 = Unix.gettimeofday () in
    let d = Daemon.spawn flags in
    prime d priming;
    let times = (Unix.gettimeofday () -. t0) :: times in
    if k = setup_reps then (Stats.median times, d)
    else begin
      stop_daemon errors d;
      go (k + 1) times
    end
  in
  go 1 []

let solve_failures rs =
  List.filter_map
    (fun (r : Solve_paper.result) ->
      if r.ok then None
      else Some ("solve not verified: " ^ r.family ^ " " ^ r.report.Hsp.Runner.instance))
    rs

(* Core-solver layers for the service workloads: a short in-process
   window over cycles of the solve-paper stream without its
   Z_112 x Z_32 slots. *)
let solve_probe ~spans ~seed =
  let rng = Random.State.make [| 0x736f6c76; seed |] in
  Solve_paper.run_window ~with_heavy:false ~spans ~rng ~seconds:solve_probe_seconds ()

let serve ~cfg ~flags ~(stream : Traffic.stream) ~priming =
  let errors = ref [] in
  let setup_s, d = repeated_setup ~errors ~flags ~priming in
  let spans = Spans.create ~on:cfg.trace in
  let window ~spans ~seconds =
    Serve.run_window ~spans ~daemon:d ~conns ~seconds ~next:stream.next ~boundary:stream.boundary ()
  in
  let finish metrics windows ~extra_attempts ~extra_errors =
    stop_daemon errors d;
    let attempted =
      List.fold_left (fun acc w -> acc + List.length w.Serve.outcomes) extra_attempts windows
    in
    {
      metrics;
      attempted = max attempted 1;
      errors = List.concat_map window_errors windows @ extra_errors @ !errors;
      daemon_flags = flags;
      spans;
    }
  in
  if not cfg.trace then begin
    let w = window ~spans ~seconds:cfg.seconds in
    let peak_rss_mb = Daemon.peak_rss_mb d in
    class_summary w;
    finish
      (e2e ~setup_s ~latencies:(window_latencies w) ~ok:(window_ok w) ~elapsed:w.elapsed
         ~cpu:w.cpu ~peak_rss_mb)
      [ w ] ~extra_attempts:0 ~extra_errors:[]
  end
  else begin
    let idle_stats_rtt = Serve.idle_stats_rtt d ~n:50 in
    let w0 = window ~spans:(Spans.create ~on:false) ~seconds:(cfg.seconds /. 2.) in
    let w1 = window ~spans ~seconds:(cfg.seconds /. 2.) in
    let tput (w : Serve.window) = float_of_int (window_ok w) /. w.elapsed in
    let solves = solve_probe ~spans ~seed:cfg.seed in
    let metrics =
      Layers.merge
        (Layers.of_window ~idle_stats_rtt w1)
        (Layers.only [ "core."; "runner." ] (Layers.of_solves solves.results)
        @ Probes.run ~spans ~seed:cfg.seed)
      @ [ ("trace.overhead_ratio", tput w0 /. tput w1, "ratio") ]
    in
    finish metrics [ w0; w1 ]
      ~extra_attempts:(List.length solves.results)
      ~extra_errors:(solve_failures solves.results)
  end

let prime_all (stream : Traffic.stream) =
  Array.to_list (Array.map (fun inst -> Traffic.sample_op inst ~count:1 ~seed:1) stream.oracles)

let serve_mixed cfg =
  let stream = Traffic.mixed (Random.State.make [| 0x6d697864; cfg.seed |]) in
  serve ~cfg ~flags:[] ~stream ~priming:(prime_all stream)

let serve_churn cfg =
  let stream = Traffic.churn (Random.State.make [| 0x63687572; cfg.seed |]) in
  (* fill the cache with the most popular oracles, the most popular
     last (most recently used) *)
  let n = Traffic.churn_cache_entries in
  let priming =
    List.init n (fun k -> Traffic.sample_op stream.oracles.(n - 1 - k) ~count:1 ~seed:1)
  in
  serve ~cfg ~flags:[ "--cache-entries"; string_of_int n ] ~stream ~priming

(* ---- solve-paper ---- *)

(* Service layers for the in-process workload: a short single-connection
   serve-mixed window against a daemon at its default flags. *)
let service_probe ~cfg ~spans =
  let stream = Traffic.mixed (Random.State.make [| 0x6d697864; cfg.seed |]) in
  let d = Daemon.spawn [] in
  let errors = ref [] in
  let w, idle_stats_rtt =
    Fun.protect ~finally:(fun () -> stop_daemon errors d) @@ fun () ->
    prime d (prime_all stream);
    let idle_stats_rtt = Serve.idle_stats_rtt d ~n:50 in
    ( Serve.run_window ~spans ~daemon:d ~conns:1 ~seconds:service_probe_seconds
        ~next:stream.next ~boundary:stream.boundary (),
      idle_stats_rtt )
  in
  (w, idle_stats_rtt, !errors)

let family_summary (rs : Solve_paper.result list) =
  let family (r : Solve_paper.result) = r.family in
  List.iter
    (fun f ->
      let xs = List.filter (fun r -> String.equal (family r) f) rs in
      let ms g = 1e3 *. Stats.mean (List.map g xs) in
      Printf.eprintf "family %-20s n=%3d wall %8.1f ms  solve %8.1f ms\n" f (List.length xs)
        (ms (fun r -> r.Solve_paper.wall))
        (ms (fun r -> r.Solve_paper.report.Hsp.Runner.seconds)))
    (List.sort_uniq String.compare (List.map family rs))

(* Set-up of [solve-paper] is instance construction, timed per cycle
   inside the window; at least [setup_reps] cycles are constructed. *)
let setup_of_builds rng (w : Solve_paper.window) =
  let extra =
    List.init
      (max 0 (setup_reps - List.length w.builds))
      (fun _ ->
        let t0 = Unix.gettimeofday () in
        ignore (Solve_paper.build_cycle rng);
        Unix.gettimeofday () -. t0)
  in
  Stats.median (w.builds @ extra)

let solve_paper cfg =
  let rng = Random.State.make [| 0x70617072; cfg.seed |] in
  let spans = Spans.create ~on:cfg.trace in
  if not cfg.trace then begin
    let w = Solve_paper.run_window ~spans ~rng ~seconds:cfg.seconds () in
    family_summary w.results;
    let errors = solve_failures w.results in
    let latencies =
      List.map
        (fun (r : Solve_paper.result) -> if r.ok then r.wall else Float.infinity)
        w.results
    in
    {
      metrics =
        e2e ~setup_s:(setup_of_builds rng w) ~latencies
          ~ok:(List.length w.results - List.length errors)
          ~elapsed:w.busy ~cpu:w.cpu
          ~peak_rss_mb:(Proc.peak_rss_mb (Unix.getpid ()));
      attempted = List.length w.results;
      errors;
      daemon_flags = [];
      spans;
    }
  end
  else begin
    let half = cfg.seconds /. 2. in
    let w0 = Solve_paper.run_window ~spans:(Spans.create ~on:false) ~rng ~seconds:half () in
    let w1 = Solve_paper.run_window ~spans ~rng ~seconds:half () in
    family_summary (w0.results @ w1.results);
    let w, idle_stats_rtt, daemon_errors = service_probe ~cfg ~spans in
    let tput (w : Solve_paper.window) = float_of_int (List.length w.results) /. w.busy in
    let metrics =
      Layers.of_solves w1.results
      @ Layers.only
          [ "cache."; "service."; "server."; "jsonv."; "protocol." ]
          (Layers.of_window ~idle_stats_rtt w)
      @ Probes.run ~spans ~seed:cfg.seed
      @ [ ("trace.overhead_ratio", tput w0 /. tput w1, "ratio") ]
    in
    {
      metrics;
      attempted = List.length w0.results + List.length w1.results + List.length w.Serve.outcomes;
      errors = solve_failures (w0.results @ w1.results) @ window_errors w @ daemon_errors;
      daemon_flags = [];
      spans;
    }
  end

let workloads =
  [ ("serve-mixed", serve_mixed); ("serve-churn", serve_churn); ("solve-paper", solve_paper) ]
