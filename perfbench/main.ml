(* perfbench — the repository benchmark.

     perfbench/run.sh --workload serve-mixed --seed 1 --seconds 20 --trace 0

   Runs one workload (serve-mixed, serve-churn, solve-paper) and prints,
   as the last line of stdout, one JSON object
   {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
   of BENCHMARK.json with --trace 0, its per-layer metrics with
   --trace 1.  The line before it records the run's fingerprint.  A
   traced run also writes a Chrome trace-event file under .bench_run/.
   Exits 1 when any op failed or any output check did not hold. *)

open Hsp_service
open Hspbench

let usage () =
  prerr_endline
    "usage: main.exe --workload serve-mixed|serve-churn|solve-paper --seed N --seconds S \
     --trace 0|1";
  exit 2

let parse_args () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec go acc = function
    | [] -> acc
    | k :: v :: rest when String.starts_with ~prefix:"--" k -> go ((k, v) :: acc) rest
    | _ -> usage ()
  in
  let kv = go [] args in
  let get k = List.assoc_opt k kv in
  let int k = Option.bind (get k) int_of_string_opt in
  match (get "--workload", int "--seed", int "--seconds", int "--trace") with
  | Some workload, Some seed, Some seconds, Some trace
    when seconds > 0 && (trace = 0 || trace = 1) ->
      {
        Run_workload.workload;
        seed;
        seconds = float_of_int seconds;
        trace = trace = 1;
      }
  | _ -> usage ()

(* (name, unit) of the metrics BENCHMARK.json declares. *)
let declared section =
  let spec =
    match Jsonv.of_string (Proc.read_file "BENCHMARK.json") with
    | Ok v -> v
    | Error e -> failwith ("BENCHMARK.json: " ^ e)
  in
  match Option.bind (Jsonv.member section spec) Jsonv.to_list_opt with
  | None -> failwith ("BENCHMARK.json lacks " ^ section)
  | Some ms ->
      List.map
        (fun m ->
          match
            ( Option.bind (Jsonv.member "name" m) Jsonv.to_string_opt,
              Option.bind (Jsonv.member "unit" m) Jsonv.to_string_opt )
          with
          | Some n, Some u -> (n, u)
          | _ -> failwith "BENCHMARK.json: metric without name/unit")
        ms

let git_rev () =
  try
    let head = String.trim (Proc.read_file ".git/HEAD") in
    match String.split_on_char ' ' head with
    | [ "ref:"; r ] -> String.trim (Proc.read_file (Filename.concat ".git" r))
    | _ -> head
  with Sys_error _ -> "unknown"

let fingerprint (cfg : Run_workload.config) (r : Run_workload.run) =
  Jsonv.Obj
    [
      ("workload", Jsonv.String cfg.workload);
      ("seed", Jsonv.Int cfg.seed);
      ("seconds", Jsonv.Float cfg.seconds);
      ("trace", Jsonv.Bool cfg.trace);
      ("daemon_flags", Jsonv.List (List.map (fun s -> Jsonv.String s) r.daemon_flags));
      ("nproc", Jsonv.Int (Domain.recommended_domain_count ()));
      ("ocaml", Jsonv.String Sys.ocaml_version);
      ("git_rev", Jsonv.String (git_rev ()));
    ]

let () =
  let cfg = parse_args () in
  List.iter
    (fun v ->
      if Sys.getenv_opt v <> None then begin
        Printf.eprintf "perfbench: %s is set; unset it so the run measures shipped defaults\n" v;
        exit 2
      end)
    Daemon.scrubbed;
  let workload =
    match List.assoc_opt cfg.workload Run_workload.workloads with
    | Some w -> w
    | None -> usage ()
  in
  let wanted = declared (if cfg.trace then "per_layer" else "end_to_end") in
  if not (Sys.file_exists Daemon.exe) then begin
    Printf.eprintf "perfbench: daemon %s not built\n" Daemon.exe;
    exit 2
  end;
  let r = workload cfg in
  let failed = List.length r.errors in
  let correct = failed = 0 in
  let metrics =
    List.map
      (fun (name, unit) ->
        let value v = Jsonv.Obj [ ("value", v); ("unit", Jsonv.String unit) ] in
        match List.find_opt (fun (n, _, _) -> String.equal n name) r.metrics with
        | Some (_, v, u) when String.equal u unit && Float.is_finite v ->
            (name, value (Jsonv.Float v))
        (* a failed op is infinitely slow; the run is already not correct *)
        | Some (_, _, u) when String.equal u unit && not correct -> (name, value Jsonv.Null)
        | Some (_, v, u) ->
            failwith (Printf.sprintf "metric %s: %g %s (declared unit %s)" name v u unit)
        | None -> failwith ("metric not measured: " ^ name))
      wanted
  in
  let fp = fingerprint cfg r in
  if cfg.trace then begin
    List.iter
      (fun (name, self, n) ->
        Printf.eprintf "self %-32s %10.3f ms over %6d spans\n" name (1e3 *. self) n)
      (Spans.self_times r.spans);
    let path =
      Filename.concat Daemon.run_root (Printf.sprintf "trace-%s-%d.json" cfg.workload cfg.seed)
    in
    (try Unix.mkdir Daemon.run_root 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    Spans.write r.spans ~path ~metadata:fp;
    Printf.eprintf "trace written to %s\n" path
  end;
  List.iter (fun e -> Printf.eprintf "FAILED: %s\n" e) r.errors;
  print_endline (Jsonv.to_string (Jsonv.Obj [ ("fingerprint", fp) ]));
  print_endline
    (Jsonv.to_string
       (Jsonv.Obj
          [
            ("correct", Jsonv.Bool correct);
            ("attempted", Jsonv.Int r.attempted);
            ("failed", Jsonv.Int failed);
            ("metrics", Jsonv.Obj metrics);
          ]));
  exit (if correct then 0 else 1)
