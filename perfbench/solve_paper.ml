(* The paper-facing workload: fresh random instances, one family per
   theorem, each solved in-process through [Runner.run] with
   ground-truth verification.  Instance construction (group, planted
   subgroup, hiding function) is set-up; the measured op is one
   [Runner.run], whose solve part [Runner] itself times, so the
   verification share is the rest of the wall time. *)

open Groups
open Hsp

type result = {
  family : string;
  wall : float;  (** the whole [Runner.run] *)
  report : Runner.report;
  quantum : int;  (** quantum queries, wherever the solver counted them *)
  classical : int;
  ok : bool;  (** [report.ok], and any family-specific check *)
}

type prepared = { family : string; run : unit -> result }

let timed family run_report =
  let t0 = Unix.gettimeofday () in
  let report, quantum, classical, extra_ok = run_report () in
  let wall = Unix.gettimeofday () -. t0 in
  let ok = report.Runner.ok && report.Runner.verified && extra_ok in
  { family; wall; report; quantum; classical; ok }

(* Solve through [Runner.run]; queries come from the instance's hiding
   function. *)
let via_hiding family (inst : 'a Instances.t) solver =
  {
    family;
    run =
      (fun () ->
        timed family
          (fun () ->
            let r = Runner.run ~algorithm:family inst ~solver in
            (r, r.Runner.quantum_queries, r.Runner.classical_queries, true)));
  }

(* ---- families ---- *)

let thm3_simon n rng =
  let mask = Array.init n (fun _ -> Random.State.int rng 2) in
  mask.(Random.State.int rng n) <- 1;
  let srng = Random.State.split rng in
  via_hiding (Printf.sprintf "thm3.simon%d" n) (Instances.simon ~n ~mask) (fun i ->
      Abelian_hsp.solve srng i.Instances.group i.Instances.hiding)

let thm3_abelian dims rng =
  let inst = Instances.abelian_random rng ~dims in
  let srng = Random.State.split rng in
  let family =
    "thm3.abelian" ^ String.concat "x" (List.map string_of_int (Array.to_list dims))
  in
  via_hiding family inst (fun i ->
      Abelian_hsp.solve srng i.Instances.group i.Instances.hiding)

(* Theorem 4 as an HSP: the order [r] of [a mod n] is the generator of
   the kernel of [x -> a^x mod n] on [Z_phi(n)].  Ground truth [r] is
   computed classically at construction. *)
let thm4_order rng =
  let pqs = [| (3, 17); (5, 11); (3, 19); (5, 13); (3, 23) |] in
  let p, q = pqs.(Random.State.int rng (Array.length pqs)) in
  let n = p * q and phi = (p - 1) * (q - 1) in
  let rec unit () =
    let a = 2 + Random.State.int rng (n - 3) in
    if Numtheory.Arith.gcd a n = 1 then a else unit ()
  in
  let a = unit () in
  let rec order k x = if x = 1 then k else order (k + 1) (x * a mod n) in
  let r = order 1 (a mod n) in
  let inst =
    Instances.make ~name:(Printf.sprintf "ord(%d mod %d)" a n) (Cyclic.zn phi) [ [| r |] ]
  in
  let srng = Random.State.split rng in
  let family = "thm4.order" in
  {
    family;
    run =
      (fun () ->
        let queries = Quantum.Query.create () in
        timed family (fun () ->
            let rep =
              Runner.run ~algorithm:family inst ~solver:(fun _ ->
                  match
                    Quantum.Shor.find_order srng
                      ~pow:(fun k -> Numtheory.Arith.powmod a k n)
                      ~order_bound:n ~queries
                  with
                  | Some r' -> [ [| r' mod phi |] ]
                  | None -> [])
            in
            (rep, Quantum.Query.count queries, 0, true)));
  }

(* Theorem 6: the relation lattice of commuting elements
   ([Membership.kernel_of_power_map]) checked against the kernel
   enumerated at construction, plus a constructive membership query
   for an element of the subgroup, whose witness is checked by
   multiplying it out. *)
let thm6_membership rng =
  let ambient = [| 4; 6 |] in
  let g = Cyclic.product ambient in
  let elt () = Array.map (fun d -> Random.State.int rng d) ambient in
  let xs = [ elt (); elt () ] in
  let orders = Array.of_list (List.map (Group.element_order g) xs) in
  let power_map a =
    List.fold_left2
      (fun acc x k -> g.Group.mul acc (Group.pow g x k))
      g.Group.id xs (Array.to_list a)
  in
  let lattice = Cyclic.product orders in
  let kernel =
    List.filter (fun a -> g.Group.equal (power_map a) g.Group.id) (Group.elements lattice)
  in
  let inst = Instances.make ~name:"relations(Z4xZ6)" lattice kernel in
  let exps = Array.map (fun o -> Random.State.int rng o) orders in
  let target = power_map exps in
  let srng = Random.State.split rng in
  let family = "thm6.membership" in
  {
    family;
    run =
      (fun () ->
        let queries = Quantum.Query.create () in
        let witness_ok = ref false in
        timed family (fun () ->
            let rep =
              Runner.run ~algorithm:family inst ~solver:(fun _ ->
                  (match Membership.express srng g ~hs:xs target ~order_bound:24 ~queries with
                  | Some w -> witness_ok := g.Group.equal (power_map w.Membership.exponents) target
                  | None -> witness_ok := false);
                  Membership.kernel_of_power_map srng g xs ~orders ~queries)
            in
            (rep, Quantum.Query.count queries, 0, !witness_ok)));
  }

let thm8_dihedral rng =
  let ns = [| 24; 30; 36; 40; 48 |] in
  let n = ns.(Random.State.int rng (Array.length ns)) in
  let ds = List.filter (fun d -> d > 1 && d < n && n mod d = 0) (List.init n Fun.id) in
  let d = List.nth ds (Random.State.int rng (List.length ds)) in
  let srng = Random.State.split rng in
  via_hiding "thm8.dihedral" (Instances.dihedral_rotation ~n ~d) (fun i ->
      (Normal_hsp.solve srng i.Instances.group i.Instances.hiding).Normal_hsp.generators)

let thm8_frobenius rng =
  let pqs = [| (7, 3); (11, 5); (13, 3); (19, 3); (29, 7); (31, 5) |] in
  let p, q = pqs.(Random.State.int rng (Array.length pqs)) in
  let srng = Random.State.split rng in
  via_hiding "thm8.frobenius" (Instances.frobenius_translations ~p ~q) (fun i ->
      (Normal_hsp.solve srng i.Instances.group i.Instances.hiding).Normal_hsp.generators)

let thm11_heisenberg p rng =
  let inst = Instances.heisenberg_random rng ~p ~m:1 in
  let srng = Random.State.split rng in
  via_hiding (Printf.sprintf "thm11.heisenberg%d" p) inst (fun i ->
      Small_commutator.solve_gens srng i.Instances.group i.Instances.hiding)

let thm13_wreath rng =
  let inst = Instances.wreath_random rng ~k:4 in
  let srng = Random.State.split rng in
  via_hiding "thm13.wreath" inst (fun i ->
      (Elem_abelian2.solve_general srng i.Instances.group ~n_gens:(Wreath.base_gens 4)
         i.Instances.hiding)
        .Elem_abelian2.generators)

let thm13_semidirect rng =
  let n = 6 and m = 3 in
  let inst = Instances.semidirect_random rng ~n ~m in
  let srng = Random.State.split rng in
  via_hiding "thm13.semidirect" inst (fun i ->
      (Elem_abelian2.solve_cyclic srng i.Instances.group ~n_gens:(Semidirect.base_gens ~n)
         i.Instances.hiding)
        .Elem_abelian2.generators)

(* One cycle of the stream.  Every cycle holds the same family slots
   with fresh parameters, so a run's family mix does not depend on the
   seed.  Slot counts put each latency quantile in the middle of a
   band of like-cost solves, not on the step between two bands: of the
   35 ops, the top 2 are the Z_112 x Z_32 solves and the next 3 the
   ~170 ms Simon n=10 solves, whose middle is the 90th percentile; the
   median falls in the ~20-50 ms band of the 16 Theorem 3/4/6 solves.
   The Z_112 x Z_32 solves are about half of a cycle's time, almost all
   of it the group decomposition outside every ledger phase, which is
   what [core.unattributed_s] exposes.  (Z_112 x Z_64 has the same
   shape but takes 3-5 s per solve, swinging up to 2x between
   identical calls; a few of those per run made run-to-run spread
   exceed the bounds.) *)
let light =
  [ thm3_simon 10; thm3_simon 10; thm3_simon 10;
    thm13_semidirect; thm13_wreath; thm13_semidirect; thm13_wreath; thm13_semidirect; thm13_wreath;
    thm11_heisenberg 11; thm11_heisenberg 11; thm11_heisenberg 11;
    thm3_simon 8; thm6_membership; thm4_order; thm3_abelian [| 16; 12 |];
    thm3_simon 8; thm6_membership; thm4_order; thm3_abelian [| 16; 12 |];
    thm3_simon 8; thm6_membership; thm4_order; thm3_abelian [| 16; 12 |];
    thm3_simon 8; thm6_membership; thm4_order; thm3_abelian [| 16; 12 |];
    thm11_heisenberg 7; thm11_heisenberg 7; thm11_heisenberg 7;
    thm8_frobenius; thm8_dihedral ]

let heavy = [ thm3_abelian [| 112; 32 |]; thm3_abelian [| 112; 32 |] ]

(* One cycle of freshly constructed instances; [~with_heavy:false]
   leaves out the Z_112 x Z_32 slots (the short solver probe of the
   service workloads). *)
let build_cycle ?(with_heavy = true) rng =
  List.map (fun f -> f rng) (if with_heavy then heavy @ light else light)

type window = {
  results : result list;
  busy : float;  (** wall seconds inside ops *)
  cpu : float;  (** process CPU seconds inside ops *)
  builds : float list;  (** seconds to construct each cycle *)
}

(* Construct and run whole cycles until [seconds] have been spent
   inside ops (at least one cycle); a cycle is the unit so every run
   sees the same family mix.  Construction is timed apart from the
   ops: it is set-up, not solve work. *)
let run_window ?with_heavy ~spans ~rng ~seconds () =
  let results = ref [] and busy = ref 0. and cpu = ref 0. and builds = ref [] in
  while !builds = [] || !busy < seconds do
    let t0 = Unix.gettimeofday () in
    let cycle = build_cycle ?with_heavy rng in
    builds := (Unix.gettimeofday () -. t0) :: !builds;
    List.iter
      (fun p ->
        let id = Spans.fresh spans in
        let c0 = Proc.self_cpu_seconds () in
        let t0 = Unix.gettimeofday () in
        let r = p.run () in
        let t1 = Unix.gettimeofday () in
        cpu := !cpu +. (Proc.self_cpu_seconds () -. c0);
        busy := !busy +. (t1 -. t0);
        if Spans.on spans then begin
          let solve_end = t0 +. r.report.Runner.seconds in
          Spans.add spans ~parent:id ~rid:id ~id:(Spans.fresh spans) "runner.solve" t0 solve_end;
          Spans.add spans ~parent:id ~rid:id ~id:(Spans.fresh spans) "runner.verify" solve_end t1;
          Spans.add spans ~rid:id ~id ("solve." ^ r.family) t0 t1
        end;
        results := r :: !results)
      cycle
  done;
  { results = List.rev !results; busy = !busy; cpu = !cpu; builds = List.rev !builds }
