(* A real [hsp_served serve] child process on a private socket.

   The daemon gets the benchmark's environment minus the knobs that
   would change what is measured (HSP_JOBS, HSP_BACKEND, HSP_FUSE,
   HSP_SCHED), so a run measures the shipped defaults.  Its socket
   lives in a fresh directory under [.bench_run/] in the working
   directory; paths stay relative so they fit the sun_path limit
   however deep the checkout is.

   Lifecycle that cannot hang: [Server.accept_loop] joins every
   connection thread before it exits, so a client connection left
   open would make [shutdown] wait forever.  Callers close their
   connections first; {!stop} then sends [shutdown] on a fresh one,
   waits for the exit with a timeout, and kills on expiry (reported as
   an error).  Every client socket has a receive timeout, and an
   [at_exit] hook kills any daemon still alive. *)

open Hsp_service

let scrubbed = [ "HSP_JOBS"; "HSP_BACKEND"; "HSP_FUSE"; "HSP_SCHED" ]

let hermetic_env () =
  Unix.environment () |> Array.to_list
  |> List.filter (fun kv ->
         not (List.exists (fun v -> String.starts_with ~prefix:(v ^ "=") kv) scrubbed))
  |> Array.of_list

type t = { pid : int; dir : string; socket : string }

(* Built by perfbench/run.sh; the benchmark runs from the checkout root. *)
let exe = "_build/default/bin/hsp_served.exe"

let live : int list ref = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

let run_root = ".bench_run"
let counter = ref 0

let private_dir () =
  (try Unix.mkdir run_root 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  incr counter;
  let dir = Filename.concat run_root (Printf.sprintf "%d-%d" (Unix.getpid ()) !counter) in
  (try Unix.mkdir dir 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  dir

let reply_timeout = 30.

let connect_fd socket =
  let fd = Server.connect ~socket_path:socket in
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO reply_timeout;
  fd

let alive pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> true
  | _ -> false
  | exception Unix.Unix_error _ -> false

let log_tail t =
  try
    let s = Proc.read_file (Filename.concat t.dir "daemon.log") in
    if String.length s > 2000 then String.sub s (String.length s - 2000) 2000 else s
  with Sys_error _ -> ""

(* Send one request and read its reply frame (raw payload). *)
let rpc_raw fd json =
  Protocol.write_frame fd (Jsonv.to_string json);
  match Protocol.read_frame fd with
  | Some payload -> payload
  | None -> failwith "daemon closed the connection"

let rpc fd json =
  match Jsonv.of_string (rpc_raw fd json) with
  | Ok v -> v
  | Error e -> failwith ("unparseable reply: " ^ e)

(* Start [exe serve] and block until it answers [stats] (or fail after
   [timeout] seconds). *)
let spawn ?(timeout = 30.) flags =
  let dir = private_dir () in
  let socket = Filename.concat dir "hsp.sock" in
  let log =
    Unix.openfile (Filename.concat dir "daemon.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ]
      0o600
  in
  let argv = Array.of_list (exe :: "serve" :: "--socket" :: socket :: flags) in
  let pid = Unix.create_process_env exe argv (hermetic_env ()) Unix.stdin log log in
  Unix.close log;
  live := pid :: !live;
  let t = { pid; dir; socket } in
  let deadline = Unix.gettimeofday () +. timeout in
  let rec wait () =
    match connect_fd socket with
    | fd ->
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () ->
            match Jsonv.member "ok" (rpc fd (Planted.stats_request ~id:0)) with
            | Some (Jsonv.Bool true) -> ()
            | _ -> failwith "daemon answered stats with an error")
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
        if not (alive pid) then failwith ("daemon exited during start-up: " ^ log_tail t)
        else if Unix.gettimeofday () > deadline then failwith "daemon did not come up"
        else begin
          Unix.sleepf 0.002;
          wait ()
        end
  in
  wait ();
  t

let remove_dir dir =
  Array.iter
    (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    (Sys.readdir dir);
  try Unix.rmdir dir with Unix.Unix_error _ -> ()

(* Shut down (all client connections must already be closed).  [Ok ()]
   on a clean exit with status 0; [Error] when the daemon had to be
   killed or exited abnormally. *)
let stop ?(timeout = 20.) t =
  let ack =
    match connect_fd t.socket with
    | fd ->
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            try
              match Jsonv.member "ok" (rpc fd (Planted.shutdown_request ~id:0)) with
              | Some (Jsonv.Bool true) -> Ok ()
              | _ -> Error "shutdown refused"
            with e -> Error (Printexc.to_string e))
    | exception e -> Error (Printexc.to_string e)
  in
  let deadline = Unix.gettimeofday () +. timeout in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] t.pid with
    | 0, _ ->
        if Unix.gettimeofday () > deadline then begin
          (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] t.pid);
          Error "daemon did not exit after shutdown; killed"
        end
        else begin
          Unix.sleepf 0.005;
          wait ()
        end
    | _, Unix.WEXITED 0 -> Ok ()
    | _, _ -> Error ("daemon exited abnormally: " ^ log_tail t)
  in
  let exited = wait () in
  live := List.filter (fun p -> p <> t.pid) !live;
  remove_dir t.dir;
  match (ack, exited) with Ok (), Ok () -> Ok () | Error e, _ | _, Error e -> Error e

let cpu_seconds t = Proc.cpu_seconds t.pid
let peak_rss_mb t = Proc.peak_rss_mb t.pid
