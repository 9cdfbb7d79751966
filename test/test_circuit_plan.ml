(* Tests for the circuit compiler: fused plans, native kernels,
   determinism of the plan path against the gate-by-gate reference
   across job counts / schedulers, and the symbolic plan verifier in
   Analysis.Circuit_check. *)

open Linalg
open Quantum

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* The reference [Circuit.run] is checked against: one
   [State.apply_wires] per gate, no plan. *)
let gate_by_gate c st =
  List.fold_left
    (fun st (Circuit.Gate (m, wires)) -> State.apply_wires st ~wires m)
    st (Circuit.ops c)

let with_jobs j f =
  Parallel.set_jobs j;
  Fun.protect ~finally:(fun () -> Parallel.set_jobs 1) f

let with_sched s f =
  Parallel.set_sched s;
  Fun.protect ~finally:(fun () -> Parallel.set_sched Parallel.Fifo) f

let is_err = function Error _ -> true | Ok _ -> false

(* ------------------------------------------------------------------ *)
(* Random circuits: a gate vocabulary hitting every kernel — fused
   1q/2q dense applies, merged diagonal sweeps, composed permutations
   and the generic arity-3 path.                                      *)
(* ------------------------------------------------------------------ *)

let distinct_wires rng n k =
  let chosen = Array.make n false in
  let rec pick acc remaining =
    if remaining = 0 then acc
    else begin
      let w = ref (Random.State.int rng n) in
      while chosen.(!w) do
        w := Random.State.int rng n
      done;
      chosen.(!w) <- true;
      pick (!w :: acc) (remaining - 1)
    end
  in
  pick [] k

let random_circuit rng n len =
  let c = ref (Circuit.empty n) in
  for _ = 1 to len do
    (match Random.State.int rng 9 with
    | 0 -> c := Circuit.gate !c Gates.h [ Random.State.int rng n ]
    | 1 -> c := Circuit.gate !c Gates.x [ Random.State.int rng n ]
    | 2 ->
        c :=
          Circuit.gate !c
            (Gates.phase (Random.State.float rng (2.0 *. Float.pi)))
            [ Random.State.int rng n ]
    | 3 -> c := Circuit.gate !c Gates.t [ Random.State.int rng n ]
    | 4 -> c := Circuit.gate !c Gates.cnot (distinct_wires rng n 2)
    | 5 -> c := Circuit.gate !c Gates.swap (distinct_wires rng n 2)
    | 6 ->
        c :=
          Circuit.gate !c
            (Gates.controlled (Gates.rk (1 + Random.State.int rng 4)))
            (distinct_wires rng n 2)
    | 7 when n >= 3 ->
        (* controlled-swap: a 3-wire permutation, generic perm kernel *)
        c := Circuit.gate !c (Gates.controlled Gates.swap) (distinct_wires rng n 3)
    | _ when n >= 3 ->
        (* doubly controlled rotation: diagonal but over the arity-2
           kernel cap, so it must run as a generic dense apply *)
        c :=
          Circuit.gate !c
            (Gates.controlled (Gates.controlled (Gates.rk 2)))
            (distinct_wires rng n 3)
    | _ -> c := Circuit.gate !c Gates.h [ Random.State.int rng n ])
  done;
  !c

let random_state rng n =
  let dims = Array.make n 2 in
  let total = 1 lsl n in
  let v =
    Array.init total (fun _ ->
        Cx.make (Random.State.float rng 2.0 -. 1.0) (Random.State.float rng 2.0 -. 1.0))
  in
  State.of_amplitudes ~backend:Backend.Dense dims v

(* ------------------------------------------------------------------ *)
(* qcheck properties: plan == circuit on random circuits              *)
(* ------------------------------------------------------------------ *)

let qcheck_props =
  let open QCheck in
  [
    Test.make ~count:50 ~name:"fused run = unfused run on random circuits"
      (int_bound 100000) (fun seed ->
        let rng = Random.State.make [| seed; 0xf0_5e |] in
        let n = 3 + Random.State.int rng 3 in
        let c = random_circuit rng n (10 + Random.State.int rng 30) in
        let st = random_state rng n in
        let fused = Circuit.run c st in
        (* a sparse register runs the same circuit gate by gate *)
        let sparse = Circuit.run c (State.to_backend Backend.Sparse st) in
        State.approx_equal ~eps:1e-9 (gate_by_gate c st) fused
        && State.approx_equal ~eps:1e-9 sparse fused);
    Test.make ~count:50 ~name:"check_plan accepts every compiled random circuit"
      (int_bound 100000) (fun seed ->
        let rng = Random.State.make [| seed; 0x9_1a_a5 |] in
        let n = 2 + Random.State.int rng 4 in
        let c = random_circuit rng n (5 + Random.State.int rng 40) in
        match Analysis.Circuit_check.check_plan c (Circuit.compile c) with
        | Ok () -> true
        | Error _ -> false);
    Test.make ~count:30 ~name:"fused run = unfused run on (approximate) qft"
      (int_bound 100000) (fun seed ->
        let rng = Random.State.make [| seed; 0xaf5e |] in
        let n = 3 + Random.State.int rng 5 in
        let c =
          if Random.State.bool rng then Circuit.qft n
          else Circuit.qft ~approx_threshold:(2 + Random.State.int rng n) n
        in
        let st = random_state rng n in
        State.approx_equal ~eps:1e-9 (gate_by_gate c st) (Circuit.run c st)
        && Analysis.Circuit_check.check_plan c (Circuit.compile c) = Ok ());
  ]

(* ------------------------------------------------------------------ *)
(* Determinism: measurement digests across the plan and gate-by-gate
   paths, job counts and schedulers, plus bitwise state digests within
   each path (the E15 bench contract, in miniature)                   *)
(* ------------------------------------------------------------------ *)

let seeded_outcomes seed st wires_list =
  let rng = Random.State.make seed in
  let buf = Buffer.create 64 in
  ignore
    (List.fold_left
       (fun st wires ->
         let outcome, st' = State.measure rng st ~wires in
         Array.iter
           (fun v ->
             Buffer.add_string buf (string_of_int v);
             Buffer.add_char buf ',')
           outcome;
         st')
       st wires_list);
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* (outcome digest, State.digest of the circuit's output) *)
let digest_run ~exec ~jobs ~sched =
  with_jobs jobs (fun () ->
      with_sched sched (fun () ->
          let n = 10 in
          let x = Array.init n (fun i -> i land 1) in
          let st = exec (Circuit.qft n) (State.of_basis (Array.make n 2) x) in
          ( seeded_outcomes [| 0x515e; 0xd16 |] st [ [ 0; 3; 7 ]; [ 1; 2 ]; [ 4; 5; 6; 8; 9 ] ],
            State.digest st )))

let test_digests_identical_across_modes () =
  let base, _ = digest_run ~exec:gate_by_gate ~jobs:1 ~sched:Parallel.Fifo in
  List.iter
    (fun (path, exec) ->
      let _, path_state = digest_run ~exec ~jobs:1 ~sched:Parallel.Fifo in
      List.iter
        (fun jobs ->
          List.iter
            (fun sched ->
              let outcomes, state = digest_run ~exec ~jobs ~sched in
              checks (Printf.sprintf "outcomes %s jobs=%d" path jobs) base outcomes;
              checks (Printf.sprintf "state %s jobs=%d" path jobs) path_state state)
            [ Parallel.Fifo; Parallel.Shuffle ])
        [ 1; 2; 4 ])
    [ ("gates", gate_by_gate); ("plan", Circuit.run) ]

(* Negative control for the outcome digest: a Z on one wire of a
   uniform register changes only phases, so no measurement can see it
   and the seeded outcome digest stays put, but State.digest must. *)
let test_state_digest_sees_phases () =
  let n = 4 in
  let dims = Array.make n 2 in
  let wires = List.init n (fun i -> i) in
  let rec subsets = function
    | [] -> [ [] ]
    | w :: rest -> List.concat_map (fun s -> [ s; w :: s ]) (subsets rest)
  in
  List.iter
    (fun backend ->
      let st = State.uniform ~backend dims in
      let flipped = State.apply_wire st ~wire:2 Gates.z in
      List.iter
        (fun ws ->
          if ws <> [] then
            checkb "same distribution" true
              (Array.for_all2
                 (fun p q -> Float.abs (p -. q) <= 1e-12)
                 (State.probabilities st ~wires:ws)
                 (State.probabilities flipped ~wires:ws)))
        (subsets wires);
      let measures = [ [ 0; 2 ]; [ 1 ]; [ 3 ] ] in
      checks "same seeded outcomes"
        (seeded_outcomes [| 0x2 |] st measures)
        (seeded_outcomes [| 0x2 |] flipped measures);
      checks "digest is a function of the state" (State.digest st)
        (State.digest (State.uniform ~backend dims));
      checkb "state digest sees the phase" true (State.digest st <> State.digest flipped))
    [ Backend.Dense; Backend.Sparse ];
  checkb "backend tag hashed" true
    (State.digest (State.uniform ~backend:Backend.Dense dims)
    <> State.digest (State.uniform ~backend:Backend.Sparse dims));
  Alcotest.check_raises "symbolic refused"
    (Invalid_argument "State.digest: symbolic states have no amplitude planes") (fun () ->
      ignore (State.digest (State.uniform ~backend:Backend.Symbolic dims)))

(* ------------------------------------------------------------------ *)
(* Compiler structure: the QFT collapses as documented               *)
(* ------------------------------------------------------------------ *)

let stat plan key =
  match List.assoc_opt key (Circuit_plan.stats plan) with
  | Some v -> int_of_string v
  | None -> Alcotest.failf "stats has no %s entry" key

let test_qft8_plan_shape () =
  let plan = Circuit.compile (Circuit.qft 8) in
  checki "source gates" (Analysis.Circuit_check.qft_exact_gate_count 8)
    (Circuit_plan.gate_count plan);
  (* 8 Hadamards stay as 1q dense applies; the 28 controlled rotations
     merge into 7 diagonal sweeps (one per H boundary); the 4 trailing
     swaps compose into a single permutation pass. *)
  checki "steps" 16 (Circuit_plan.step_count plan);
  checki "1q fused" 8 (stat plan "fused_1q");
  checki "diag passes" 7 (stat plan "diag_passes");
  checki "diag gates" 28 (stat plan "diag_gates");
  checki "perm passes" 1 (stat plan "perm_passes");
  checki "perm gates" 4 (stat plan "perm_gates");
  checkb "bytes accounted" true (Circuit_plan.bytes plan > 0)

let test_same_wire_chain_fuses () =
  let c =
    List.fold_left
      (fun c m -> Circuit.gate c m [ 0 ])
      (Circuit.empty 2)
      [ Gates.h; Gates.y; Gates.h; Gates.y ]
  in
  let plan = Circuit.compile c in
  match plan.Circuit_plan.steps with
  | [ Circuit_plan.Fused { wires = [ 0 ]; mat; count = 4 } ] ->
      (* latest gate left-multiplies: Y . H . Y . H *)
      let expected =
        Cmat.mul Gates.y (Cmat.mul Gates.h (Cmat.mul Gates.y Gates.h))
      in
      checkb "chain product" true (Cmat.approx_equal ~eps:1e-12 mat expected)
  | _ -> Alcotest.fail "same-wire chain did not fuse to one step"

(* ------------------------------------------------------------------ *)
(* O(n) circuit construction (the seed's O(n^2) gate/seq fix)        *)
(* ------------------------------------------------------------------ *)

let test_construction_order () =
  let a = Circuit.gate (Circuit.gate (Circuit.empty 2) Gates.h [ 0 ]) Gates.x [ 1 ] in
  (match Circuit.ops a with
  | [ Circuit.Gate (_, [ 0 ]); Circuit.Gate (_, [ 1 ]) ] -> ()
  | _ -> Alcotest.fail "ops not in application order");
  let b = Circuit.gate (Circuit.empty 2) Gates.z [ 0 ] in
  (match Circuit.ops (Circuit.seq a b) with
  | [ Circuit.Gate (_, [ 0 ]); Circuit.Gate (_, [ 1 ]); Circuit.Gate (_, [ 0 ]) ] -> ()
  | _ -> Alcotest.fail "seq not in application order");
  (match Circuit.ops (Circuit.inverse a) with
  | [ Circuit.Gate (m1, [ 1 ]); Circuit.Gate (m0, [ 0 ]) ] ->
      checkb "inverse adjoints x" true
        (Cmat.approx_equal ~eps:1e-12 m1 (Cmat.adjoint Gates.x));
      checkb "inverse adjoints h" true
        (Cmat.approx_equal ~eps:1e-12 m0 (Cmat.adjoint Gates.h))
  | _ -> Alcotest.fail "inverse not reversed");
  let big =
    let c = ref (Circuit.empty 1) in
    for _ = 1 to 2000 do
      c := Circuit.gate !c Gates.h [ 0 ]
    done;
    !c
  in
  checki "gate_count O(1)" 2000 (Circuit.gate_count big);
  checki "ops materialises all" 2000 (List.length (Circuit.ops big))

let test_fingerprint_keys_structure () =
  let c1 = Circuit.gate (Circuit.empty 2) (Gates.phase 0.25) [ 0 ] in
  let c2 = Circuit.gate (Circuit.empty 2) (Gates.phase 0.25) [ 0 ] in
  let c3 = Circuit.gate (Circuit.empty 2) (Gates.phase 0.250000001) [ 0 ] in
  let c4 = Circuit.gate (Circuit.empty 2) (Gates.phase 0.25) [ 1 ] in
  checks "equal circuits share" (Circuit.fingerprint c1) (Circuit.fingerprint c2);
  checkb "entry bits matter" true (Circuit.fingerprint c1 <> Circuit.fingerprint c3);
  checkb "wires matter" true (Circuit.fingerprint c1 <> Circuit.fingerprint c4)

(* ------------------------------------------------------------------ *)
(* Plan verifier: positive and negative fixtures                      *)
(* ------------------------------------------------------------------ *)

let map_first_step f plan =
  let seen = ref false in
  let steps =
    List.map
      (fun s ->
        if !seen then s
        else
          match f s with
          | Some s' ->
              seen := true;
              s'
          | None -> s)
      plan.Circuit_plan.steps
  in
  checkb "fixture found a step to corrupt" true !seen;
  { plan with Circuit_plan.steps }

let test_check_plan_positive () =
  List.iter
    (fun c ->
      match Analysis.Circuit_check.check_plan c (Circuit.compile c) with
      | Ok () -> ()
      | Error vs ->
          Alcotest.failf "plan rejected: %s"
            (String.concat "; "
               (List.map
                  (fun v ->
                    Format.asprintf "%a" Analysis.Circuit_check.pp_plan_violation v)
                  vs)))
    [
      Circuit.empty 3;
      Circuit.qft 4;
      Circuit.qft 8;
      Circuit.qft ~approx_threshold:2 6;
      random_circuit (Random.State.make [| 0xca_fe |]) 5 40;
    ]

let test_check_plan_negative () =
  let c = Circuit.qft 4 in
  let plan = Circuit.compile c in
  let corrupt_mat m =
    let m' = Array.map Array.copy m in
    m'.(0).(0) <- Cx.add m'.(0).(0) (Cx.re 0.5);
    m'
  in
  let bad_fused =
    map_first_step
      (function
        | Circuit_plan.Fused { wires; mat; count } ->
            Some (Circuit_plan.Fused { wires; mat = corrupt_mat mat; count })
        | _ -> None)
      plan
  in
  checkb "corrupt fused matrix caught" true
    (is_err (Analysis.Circuit_check.check_plan c bad_fused));
  let bad_diag =
    map_first_step
      (function
        | Circuit_plan.Diag { gates = (w, d) :: rest } ->
            let d' = Array.copy d in
            d'.(Array.length d' - 1) <- Cx.make 0.5 0.5;
            Some (Circuit_plan.Diag { gates = (w, d') :: rest })
        | _ -> None)
      plan
  in
  checkb "corrupt diagonal table caught" true
    (is_err (Analysis.Circuit_check.check_plan c bad_diag));
  let bad_perm =
    map_first_step
      (function
        | Circuit_plan.Perm { wires; perm; count } ->
            (* still a bijection: only the deep composition check can
               tell it apart from the real table *)
            let p = Array.copy perm in
            let t = p.(0) in
            p.(0) <- p.(1);
            p.(1) <- t;
            Some (Circuit_plan.Perm { wires; perm = p; count })
        | _ -> None)
      plan
  in
  checkb "swapped permutation entries caught" true
    (is_err (Analysis.Circuit_check.check_plan c bad_perm));
  let non_bijection =
    map_first_step
      (function
        | Circuit_plan.Perm { wires; perm; count } ->
            let p = Array.copy perm in
            p.(0) <- p.(1);
            Some (Circuit_plan.Perm { wires; perm = p; count })
        | _ -> None)
      plan
  in
  checkb "non-bijection table caught" true
    (is_err (Analysis.Circuit_check.check_plan c non_bijection));
  let truncated =
    match List.rev plan.Circuit_plan.steps with
    | _ :: rest -> { plan with Circuit_plan.steps = List.rev rest }
    | [] -> plan
  in
  checkb "dropped step leaves trailing gates" true
    (is_err (Analysis.Circuit_check.check_plan c truncated));
  checkb "source_gates mismatch caught" true
    (is_err
       (Analysis.Circuit_check.check_plan c
          { plan with Circuit_plan.source_gates = plan.Circuit_plan.source_gates + 1 }));
  checkb "register size mismatch caught" true
    (is_err
       (Analysis.Circuit_check.check_plan c { plan with Circuit_plan.num_qubits = 5 }));
  (* a malformed circuit built via of_ops must not match a real plan *)
  let wrong =
    Circuit.of_ops 4
      (List.filteri (fun i _ -> i > 0) (Circuit.ops c))
  in
  checkb "circuit missing a gate caught" true
    (is_err (Analysis.Circuit_check.check_plan wrong plan))

(* ------------------------------------------------------------------ *)
(* Guard rails: kernel argument validation, plane staging, dispatch  *)
(* ------------------------------------------------------------------ *)

let test_kernel_validation () =
  let re = Fused_kernels.create 8 and im = Fused_kernels.create 8 in
  let m1 = Array.make 8 0.0 in
  Alcotest.check_raises "bad bit"
    (Invalid_argument "Fused_kernels.apply1: bit out of range") (fun () ->
      Fused_kernels.apply1 ~re ~im ~lo:0 ~hi:4 ~bit:3 ~m:m1);
  Alcotest.check_raises "bad table"
    (Invalid_argument "Fused_kernels.apply1: gate table must be 8 floats") (fun () ->
      Fused_kernels.apply1 ~re ~im ~lo:0 ~hi:4 ~bit:0 ~m:(Array.make 6 0.0));
  Alcotest.check_raises "bad range"
    (Invalid_argument "Fused_kernels.apply1: bad index range") (fun () ->
      Fused_kernels.apply1 ~re ~im ~lo:0 ~hi:9 ~bit:0 ~m:m1);
  Alcotest.check_raises "duplicate bits"
    (Invalid_argument "Fused_kernels.apply2: duplicate bits") (fun () ->
      Fused_kernels.apply2 ~re ~im ~lo:0 ~hi:2 ~bit_a:1 ~bit_b:1 ~m:(Array.make 32 0.0))

let test_run_planes_validation () =
  let plan = Circuit.compile (Circuit.qft 3) in
  Alcotest.check_raises "plane length"
    (Invalid_argument "Circuit_plan.run_planes: plane length mismatch") (fun () ->
      ignore (Circuit_plan.run_planes plan ~re:(Array.make 4 0.0) ~im:(Array.make 4 0.0)))

let test_run_plan_dispatch () =
  let plan = Circuit.compile (Circuit.qft 3) in
  let dense = State.create ~backend:Backend.Dense (Array.make 3 2) in
  checkb "dense state runs plans" true (State.run_plan plan dense <> None);
  let sparse = State.create ~backend:Backend.Sparse (Array.make 3 2) in
  checkb "sparse state declines" true (State.run_plan plan sparse = None);
  let qutrit = State.create ~backend:Backend.Dense [| 3; 3; 3 |] in
  checkb "non-qubit register rejected" true
    (try
       ignore (State.run_plan plan qutrit);
       false
     with Invalid_argument _ -> true)

(* A dense Circuit.run takes the plan path with no setup at all. *)
let test_plan_ledger () =
  Metrics.reset ();
  let c = Circuit.qft 6 in
  let st = State.create ~backend:Backend.Dense (Array.make 6 2) in
  let reference = gate_by_gate c st in
  let reference_gate_apps = (Metrics.snapshot ()).Metrics.gate_apps in
  Metrics.reset ();
  let planned = Circuit.run c st in
  let snap = Metrics.snapshot () in
  checkb "states agree" true (State.approx_equal ~eps:1e-9 reference planned);
  checki "gate_apps identical across paths" reference_gate_apps snap.Metrics.gate_apps;
  checki "one plan compiled" 1 snap.Metrics.plans_compiled;
  checki "one pass per plan step" (Circuit_plan.step_count (Circuit.compile c))
    snap.Metrics.fused_passes;
  checki "fused gates = source gates" (Circuit.gate_count c) snap.Metrics.fused_gates

let () =
  Alcotest.run "circuit_plan"
    [
      ( "compiler",
        [
          Alcotest.test_case "qft-8 plan shape" `Quick test_qft8_plan_shape;
          Alcotest.test_case "same-wire chain fuses" `Quick test_same_wire_chain_fuses;
          Alcotest.test_case "construction order" `Quick test_construction_order;
          Alcotest.test_case "fingerprint structure" `Quick test_fingerprint_keys_structure;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "digests across fuse/jobs/sched" `Quick
            test_digests_identical_across_modes;
          Alcotest.test_case "ledger across modes" `Quick test_plan_ledger;
          Alcotest.test_case "state digest sees phases" `Quick test_state_digest_sees_phases;
        ] );
      ( "verifier",
        [
          Alcotest.test_case "accepts compiled plans" `Quick test_check_plan_positive;
          Alcotest.test_case "rejects corrupted plans" `Quick test_check_plan_negative;
        ] );
      ( "kernels",
        [
          Alcotest.test_case "argument validation" `Quick test_kernel_validation;
          Alcotest.test_case "plane staging validation" `Quick test_run_planes_validation;
          Alcotest.test_case "state dispatch" `Quick test_run_plan_dispatch;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_props);
    ]
