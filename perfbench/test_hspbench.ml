(* Negative controls for the benchmark's output checks: each defect
   the checks exist for must be caught — a corrupted sample outcome, a
   wrong generator set, a truncated reply — both by the checkers alone
   and through the closed-loop client against a fake daemon. *)

open Hsp_service
open Hspbench

let dims = [| 64; 80 |]
let moduli = [| 8; 10 |]
let inst = { Planted.dims; moduli; backend = Some "dense" }

(* y with y_i * m_i = 0 mod d_i: multiples of d_i / m_i *)
let good_outcome = [| 3 * 8; 5 * 8 |]
let tuple y = Jsonv.List (List.map (fun v -> Jsonv.Int v) (Array.to_list y))
let outcomes ys = Jsonv.List (List.map tuple ys)
let ok_reply fields = Jsonv.Obj (("id", Jsonv.Int 1) :: ("ok", Jsonv.Bool true) :: fields)
let sample_reply ys = ok_reply [ ("outcomes", outcomes ys) ]

let solve_reply ?(verified = true) gens =
  ok_reply [ ("verified", Jsonv.Bool verified); ("generators", outcomes gens) ]

let is_ok = function Ok _ -> true | Error _ -> false

let test_outcomes () =
  let check ys = Checks.check_sample ~dims ~moduli ~count:(List.length ys) (sample_reply ys) in
  Alcotest.(check bool) "valid outcome accepted" true (is_ok (check [ good_outcome; [| 0; 0 |] ]));
  Alcotest.(check bool) "corrupted outcome caught" false
    (is_ok (check [ good_outcome; [| 1; 0 |] ]));
  Alcotest.(check bool) "out-of-range outcome caught" false (is_ok (check [ [| 64; 0 |] ]));
  Alcotest.(check bool) "short outcome caught" false (is_ok (check [ [| 8 |] ]));
  Alcotest.(check bool) "wrong outcome count caught" false
    (is_ok (Checks.check_sample ~dims ~moduli ~count:3 (sample_reply [ good_outcome ])))

let test_generators () =
  let gen ok gens =
    Alcotest.(check bool) "generators" ok (Checks.generates_planted ~dims ~moduli gens)
  in
  gen true [ [| 8; 0 |]; [| 0; 10 |] ];
  (* a non-diagonal generating set of the same subgroup *)
  gen true [ [| 8; 10 |]; [| 16; 30 |]; [| 0; 20 |] ];
  gen false [ [| 8; 0 |] ] (* proper subgroup *);
  gen false [ [| 16; 0 |]; [| 0; 10 |] ] (* index-2 subgroup *);
  gen false [ [| 8; 0 |]; [| 0; 10 |]; [| 4; 0 |] ] (* not inside H *);
  gen false [ [| 8; 0; 0 |] ] (* wrong arity *);
  let r = 120 in
  let dims = Array.make r 2 and moduli = Array.init r (fun i -> if i mod 3 = 0 then 1 else 2) in
  (* H = prod m_i Z_2 is spanned by the unit vectors where m_i = 1 *)
  let basis =
    List.filter_map
      (fun i ->
        if moduli.(i) = 1 then Some (Array.init r (fun j -> if i = j then 1 else 0)) else None)
      (List.init r Fun.id)
  in
  Alcotest.(check bool) "Z_2^120 planted basis" true (Checks.generates_planted ~dims ~moduli basis);
  Alcotest.(check bool) "Z_2^120 basis missing a generator" false
    (Checks.generates_planted ~dims ~moduli (List.tl basis))

let test_solve_replies () =
  let check = Checks.check_solve ~dims ~moduli in
  Alcotest.(check bool) "correct solve accepted" true
    (is_ok (check (solve_reply [ [| 8; 0 |]; [| 0; 10 |] ])));
  Alcotest.(check bool) "wrong generator set caught" false
    (is_ok (check (solve_reply [ [| 8; 0 |]; [| 0; 20 |] ])));
  Alcotest.(check bool) "unverified solve caught" false
    (is_ok (check (solve_reply ~verified:false [ [| 8; 0 |]; [| 0; 10 |] ])))

let test_truncated_payload () =
  let full = Jsonv.to_string (sample_reply [ good_outcome ]) in
  Alcotest.(check bool) "full payload parses" true (is_ok (Checks.parse_reply ~id:1 full));
  Alcotest.(check bool) "truncated payload caught" false
    (is_ok (Checks.parse_reply ~id:1 (String.sub full 0 (String.length full / 2))));
  Alcotest.(check bool) "wrong id caught" false (is_ok (Checks.parse_reply ~id:2 full));
  Alcotest.(check bool) "error reply caught" false
    (is_ok
       (Checks.parse_reply ~id:1
          (Jsonv.to_string (Protocol.error_response ~id:(Jsonv.Int 1) Protocol.Crashed "boom"))))

(* ---- through the client, against a fake daemon ---- *)

type defect = Truncated_frame | Corrupt_outcome | Wrong_generators

(* Answers [stats] properly and every other request with [defect]. *)
let fake_daemon socket defect =
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listener (Unix.ADDR_UNIX socket);
  Unix.listen listener 8;
  let serve fd =
    let rec loop () =
      match Protocol.read_frame fd with
      | None | (exception _) -> ()
      | Some payload ->
          let req = Result.get_ok (Jsonv.of_string payload) in
          let id = Option.value ~default:Jsonv.Null (Jsonv.member "id" req) in
          let op = Option.bind (Jsonv.member "op" req) Jsonv.to_string_opt in
          let reply fields =
            Protocol.write_frame fd (Jsonv.to_string (Protocol.ok_response ~id fields))
          in
          (match (op, defect) with
          | Some "stats", _ -> reply [ ("cache", Jsonv.Obj [ ("bytes", Jsonv.Int 0) ]) ]
          | _, Truncated_frame ->
              (* a header promising 100 bytes, then 10 bytes and EOF *)
              ignore (Unix.write_substring fd "\000\000\000\100{\"id\":1,\"o" 0 14);
              Unix.shutdown fd Unix.SHUTDOWN_SEND
          | _, Corrupt_outcome -> reply [ ("outcomes", outcomes [ [| 1; 1 |] ]) ]
          | _, Wrong_generators ->
              reply [ ("verified", Jsonv.Bool true); ("generators", outcomes [ [| 8; 0 |] ]) ]);
          loop ()
    in
    loop ();
    try Unix.close fd with Unix.Unix_error _ -> ()
  in
  let rec accept () =
    match Unix.accept listener with
    | fd, _ ->
        ignore (Thread.create serve fd);
        accept ()
    | exception Unix.Unix_error _ -> ()
  in
  (listener, Thread.create accept ())

let through_client defect op () =
  let dir = Filename.temp_dir "perfbench_test" "" in
  let socket = Filename.concat dir "fake.sock" in
  let listener, th = fake_daemon socket defect in
  let daemon = { Daemon.pid = Unix.getpid (); dir; socket } in
  let ops = ref 0 in
  let next () =
    incr ops;
    op
  in
  let w =
    Serve.run_window ~spans:(Spans.create ~on:false) ~daemon ~conns:1 ~seconds:0.05 ~next
      ~boundary:(fun () -> !ops >= 3)
      ()
  in
  Unix.shutdown listener Unix.SHUTDOWN_ALL;
  Unix.close listener;
  Thread.join th;
  (try Sys.remove socket with Sys_error _ -> ());
  (try Unix.rmdir dir with Unix.Unix_error _ -> ());
  let failed = List.filter (fun (o : Serve.outcome) -> o.error <> None) w.outcomes in
  Alcotest.(check bool) "at least one op attempted" true (w.outcomes <> []);
  Alcotest.(check int) "every op failed" (List.length w.outcomes) (List.length failed)

let () =
  let sample = Traffic.sample_op inst ~count:1 ~seed:1 in
  let solve = Traffic.solve_op inst ~seed:1 in
  Alcotest.run "perfbench"
    [
      ( "checks",
        [
          Alcotest.test_case "sample outcomes" `Quick test_outcomes;
          Alcotest.test_case "generator sets" `Quick test_generators;
          Alcotest.test_case "solve replies" `Quick test_solve_replies;
          Alcotest.test_case "truncated or failed payloads" `Quick test_truncated_payload;
        ] );
      ( "client",
        [
          Alcotest.test_case "truncated reply frame is a failed op" `Quick
            (through_client Truncated_frame sample);
          Alcotest.test_case "corrupted outcome is a failed op" `Quick
            (through_client Corrupt_outcome sample);
          Alcotest.test_case "wrong generator set is a failed op" `Quick
            (through_client Wrong_generators solve);
        ] );
    ]
