(* Closed-loop client for a running daemon: a fixed number of
   connections, each sending its next request only after the previous
   reply arrived, multiplexed from one thread with [Unix.select] (so
   the load generator never contends with itself for the OCaml runtime
   lock).  Every reply is decoded and checked; a transport error, a
   malformed or failed reply, or a wrong result is a failed op. *)

open Hsp_service

type op = {
  request : id:int -> Jsonv.t;
  check : Jsonv.t -> (unit, string) result;
  solve : bool;
  kind : string;  (** op class for the per-class summary, e.g. "sample/dense" *)
}

type outcome = {
  op : op;
  latency : float;  (** encode start .. decode end, seconds *)
  rtt : float;  (** write start .. reply read, seconds *)
  encode : float;
  decode : float;
  reply_bytes : int;
  reply : Jsonv.t option;  (** the decoded successful reply *)
  error : string option;
}

type window = {
  outcomes : outcome list;
  elapsed : float;
  cpu : float;  (** daemon CPU seconds spent inside the window *)
  stats_before : Jsonv.t;
  stats_after : Jsonv.t;
  bytes_max : int;  (** largest cache footprint seen in [stats] replies *)
}

let now = Unix.gettimeofday
let next_id = ref 0

let fresh_id () =
  incr next_id;
  !next_id

let rec path v = function
  | [] -> Some v
  | k :: rest -> Option.bind (Jsonv.member k v) (fun v -> path v rest)

let num v keys =
  match Option.bind (path v keys) Jsonv.to_float_opt with Some x -> x | None -> 0.

let stats fd = Daemon.rpc fd (Planted.stats_request ~id:(fresh_id ()))

(* [stats] over a short-lived connection of its own. *)
let stats_now (daemon : Daemon.t) =
  let fd = Daemon.connect_fd daemon.Daemon.socket in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> stats fd)
let cache_bytes s = int_of_float (num s [ "cache"; "bytes" ])

type inflight = { o : op; id : int; root : int; t0 : float; t1 : float; t2 : float }

(* Run a closed loop over [conns] connections until [seconds] have
   passed and the current deck is finished ([boundary ()] is true),
   then drain the requests in flight.  [next ()] yields the next op of
   the seeded stream.  With tracing on, spans are recorded
   per request and [stats] is polled every [poll_every] completions on
   lane 1 (outside any request's latency) to track the cache
   footprint. *)
let run_window ?(poll_every = 16) ~spans ~(daemon : Daemon.t) ~conns ~seconds ~next ~boundary () =
  let stats_before = stats_now daemon in
  let fds = Array.init conns (fun _ -> Daemon.connect_fd daemon.Daemon.socket) in
  let closed = ref false in
  let close_all () =
    if not !closed then begin
      closed := true;
      Array.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) fds
    end
  in
  Fun.protect ~finally:close_all @@ fun () ->
  let bytes_max = ref (cache_bytes stats_before) in
  let outcomes = ref [] in
  let pending = Array.make conns None in
  let dead = Array.make conns false in
  let completions = ref 0 in
  let cpu0 = Daemon.cpu_seconds daemon in
  let start = now () in
  let deadline = start +. seconds in
  let fail_conn c (f : inflight) msg =
    dead.(c) <- true;
    pending.(c) <- None;
    outcomes :=
      { op = f.o; latency = now () -. f.t0; rtt = now () -. f.t1; encode = f.t1 -. f.t0;
        decode = 0.; reply_bytes = 0; reply = None; error = Some msg }
      :: !outcomes
  in
  let send c =
    let o = next () in
    let id = fresh_id () in
    let root = Spans.fresh spans in
    let t0 = now () in
    let payload = Jsonv.to_string (o.request ~id) in
    let t1 = now () in
    let f = { o; id; root; t0; t1; t2 = t1 } in
    match Protocol.write_frame fds.(c) payload with
    | () -> pending.(c) <- Some { f with t2 = now () }
    | exception e -> fail_conn c f ("transport: " ^ Printexc.to_string e)
  in
  let receive c (f : inflight) =
    let t3 = now () in
    match Protocol.read_frame fds.(c) with
    | exception e -> fail_conn c f ("transport: " ^ Printexc.to_string e)
    | None -> fail_conn c f "transport: connection closed before reply"
    | Some payload ->
        let t4 = now () in
        let parsed = Checks.parse_reply ~id:f.id payload in
        let t5 = now () in
        let checked = Result.bind parsed (fun r -> Result.map (fun () -> r) (f.o.check r)) in
        let t6 = now () in
        let lane = c + 1 and rid = f.id and parent = f.root in
        if Spans.on spans then begin
          let sub name a b = Spans.add spans ~parent ~rid ~lane ~id:(Spans.fresh spans) name a b in
          sub "client.encode" f.t0 f.t1;
          sub "protocol.write_frame" f.t1 f.t2;
          sub "server.reply_wait" f.t2 t3;
          sub "protocol.read_frame" t3 t4;
          sub "client.decode" t4 t5;
          sub "client.check" t5 t6;
          Spans.add spans ~rid ~lane ~id:f.root
            (if f.o.solve then "request.solve" else "request.sample")
            f.t0 t6
        end;
        pending.(c) <- None;
        incr completions;
        outcomes :=
          {
            op = f.o;
            latency = t5 -. f.t0;
            rtt = t4 -. f.t1;
            encode = f.t1 -. f.t0;
            decode = t5 -. t4;
            reply_bytes = String.length payload;
            reply = Result.to_option checked;
            error = (match checked with Ok _ -> None | Error e -> Some e);
          }
          :: !outcomes;
        if Spans.on spans && c = 0 && (not dead.(0)) && !completions mod poll_every = 0 then
          bytes_max := max !bytes_max (cache_bytes (stats fds.(0)))
  in
  Array.iteri (fun c _ -> send c) fds;
  let rec loop () =
    let waiting = List.filter (fun c -> pending.(c) <> None) (List.init conns Fun.id) in
    if waiting <> [] then begin
      let ready, _, _ =
        try Unix.select (List.map (fun c -> fds.(c)) waiting) [] [] Daemon.reply_timeout
        with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      if ready = [] then
        List.iter
          (fun c -> Option.iter (fun f -> fail_conn c f "transport: reply timed out") pending.(c))
          waiting
      else
        List.iter
          (fun c ->
            if List.memq fds.(c) ready then
              match pending.(c) with
              | Some f ->
                  receive c f;
                  if (not dead.(c)) && (now () < deadline || not (boundary ())) then send c
              | None -> ())
          waiting;
      loop ()
    end
  in
  loop ();
  let elapsed = now () -. start in
  let cpu = Daemon.cpu_seconds daemon -. cpu0 in
  close_all ();
  let stats_after = stats_now daemon in
  bytes_max := max !bytes_max (cache_bytes stats_after);
  { outcomes = List.rev !outcomes; elapsed; cpu; stats_before; stats_after; bytes_max = !bytes_max }

(* Median round trip of [n] back-to-back [stats] requests on an idle
   daemon, in seconds. *)
let idle_stats_rtt (daemon : Daemon.t) ~n =
  let fd = Daemon.connect_fd daemon.Daemon.socket in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  Stats.median
    (List.init n (fun _ ->
         let t0 = now () in
         ignore (stats fd);
         now () -. t0))
