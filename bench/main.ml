(* Benchmark harness: regenerates every experiment in EXPERIMENTS.md.

   The paper (Ivanyos–Magniez–Santha, SPAA 2001) is a theory paper
   with no tables or figures; its evaluation is a set of complexity
   claims.  Each experiment E1–E8 below measures one claim's *shape*:
   oracle-query and time scaling of the quantum algorithm against the
   classical baseline, on the group families the paper names.

     dune exec bench/main.exe              -- all experiment tables
     dune exec bench/main.exe -- e3 e5     -- selected experiments
     dune exec bench/main.exe -- micro     -- Bechamel micro-benchmarks

   Besides the text tables, a full or selected run writes every table
   to BENCH_<rev>.json (rev = HSP_BENCH_REV, else the git HEAD, else
   "worktree") so runs are diffable across revisions by machine.

   Absolute numbers are simulator-dependent; the claims under test are
   the growth shapes (poly(log |G|) or poly(small parameter) for the
   quantum algorithms vs Theta(|G|) classically). *)

open Groups
open Hsp

let rng = Random.State.make [| 20260705 |]

(* Every header/row pair is mirrored into [tables] so the whole run can
   be dumped as machine-readable JSON at exit. *)
let tables : (string * string list * string list list ref) list ref = ref []

let header title columns =
  Printf.printf "\n== %s ==\n" title;
  Printf.printf "%s\n" (String.concat " | " columns);
  Printf.printf "%s\n" (String.make (String.length (String.concat " | " columns)) '-');
  tables := (title, List.map String.trim columns, ref []) :: !tables

let row cells =
  Printf.printf "%s\n%!" (String.concat " | " cells);
  match !tables with
  | (_, _, rows) :: _ -> rows := List.map String.trim cells :: !rows
  | [] -> ()

let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let bench_rev () =
  match Sys.getenv_opt "HSP_BENCH_REV" with
  | Some r when r <> "" -> r
  | _ -> (
      try
        let ic = Unix.open_process_in "git rev-parse --short=12 HEAD 2>/dev/null" in
        let line = try input_line ic with End_of_file -> "" in
        match (Unix.close_process_in ic, line) with
        | Unix.WEXITED 0, r when r <> "" -> r
        | _ -> "worktree"
      with _ -> "worktree")

let write_json () =
  let rev = bench_rev () in
  let file = Printf.sprintf "BENCH_%s.json" rev in
  let oc = open_out file in
  let strings cells =
    String.concat ", " (List.map (fun c -> Printf.sprintf "\"%s\"" (json_escape c)) cells)
  in
  Printf.fprintf oc "{\n  \"rev\": \"%s\",\n  \"harness\": \"bench/main.exe\",\n  \"tables\": [" (json_escape rev);
  let first = ref true in
  List.iter
    (fun (title, columns, rows) ->
      if not !first then output_string oc ",";
      first := false;
      Printf.fprintf oc "\n    {\n      \"title\": \"%s\",\n      \"columns\": [%s],\n      \"rows\": ["
        (json_escape title) (strings columns);
      let first_row = ref true in
      List.iter
        (fun cells ->
          if not !first_row then output_string oc ",";
          first_row := false;
          Printf.fprintf oc "\n        [%s]" (strings cells))
        (List.rev !rows);
      Printf.fprintf oc "\n      ]\n    }")
    (List.rev !tables);
  Printf.fprintf oc "\n  ]\n}\n";
  close_out oc;
  Printf.printf "\nwrote %s (%d tables)\n" file (List.length !tables)

let fmt_i = Printf.sprintf "%8d"
let fmt_s = Printf.sprintf "%8s"
let fmt_f = Printf.sprintf "%8.3f"

(* Cost-claim gate (Analysis.Cost_check): every smoke and E10 row is
   checked against its theorem's query/gate budget; the run exits
   nonzero if any row exceeds it, so CI catches cost regressions the
   same way it catches wrong answers. *)
let claim_violations = ref 0

let claim_cell label ~params ~queries metrics =
  match Analysis.Cost_check.find label with
  | None -> "-"
  | Some claim ->
      let v = Analysis.Cost_check.check_snapshot claim params ~queries metrics in
      if not v.Analysis.Cost_check.ok then begin
        incr claim_violations;
        Printf.printf "claim violation: %s\n"
          (Format.asprintf "%a" Analysis.Cost_check.pp v)
      end;
      Analysis.Cost_check.cell v

(* Wall clock, not [Sys.time]: CPU seconds undercount blocked time and
   the JSON output is meant to be comparable to what a user observes. *)
let time_it f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  (x, Unix.gettimeofday () -. t0)

let add_outcome buf o =
  Array.iter
    (fun v ->
      Buffer.add_string buf (string_of_int v);
      Buffer.add_char buf ',')
    o

let short_hex d = String.sub (Digest.to_hex d) 0 8

let sched_name = function
  | Quantum.Parallel.Fifo -> "fifo"
  | Quantum.Parallel.Shuffle -> "shuf"

let jobs_ladder = List.map (fun j -> (j, Quantum.Parallel.Fifo)) [ 1; 2; 4 ]

(* Determinism matrix shared by E11, E12 and E15.  [run] executes once
   per (jobs, sched) variant, each time after a ledger reset and on a
   fresh RNG with the same seed; it returns a digest and whatever the
   experiment's own columns need.  A variant is ok when its digest AND
   its ledger (the per-call counters plus the experiment's [counters])
   equal the first (baseline) variant's; a divergence fails the run
   exactly like a cost-claim violation.  Leaves the pool at jobs=1 /
   Fifo. *)
let determinism_matrix ~label ~seed ~counters variants run =
  let ledger (m : Quantum.Metrics.snapshot) =
    [ m.gate_apps; m.gate_fibres; m.dft_apps; m.dft_fibres; m.basis_maps; m.oracle_ops;
      m.measurements; m.states_created ]
    @ counters m
  in
  let results =
    List.map
      (fun (jobs, sched) ->
        Quantum.Parallel.set_jobs jobs;
        Quantum.Parallel.set_sched sched;
        Quantum.Metrics.reset ();
        let digest, out = run (Random.State.make [| seed |]) in
        (jobs, sched, digest, ledger (Quantum.Metrics.snapshot ()), out))
      variants
  in
  Quantum.Parallel.set_jobs 1;
  Quantum.Parallel.set_sched Quantum.Parallel.Fifo;
  let _, _, base_digest, base_ledger, _ = List.hd results in
  List.map
    (fun (jobs, sched, digest, cs, out) ->
      let ok = String.equal digest base_digest && List.equal Int.equal cs base_ledger in
      if not ok then begin
        incr claim_violations;
        Printf.printf "claim violation: %s at jobs=%d sched=%s diverges from the baseline run\n"
          label jobs (sched_name sched)
      end;
      (jobs, sched, digest, ok, out))
    results

(* ------------------------------------------------------------------ *)
(* E1: Abelian HSP (Theorem 3 / Lemma 9) — Simon instances            *)
(* ------------------------------------------------------------------ *)

let e1 () =
  header "E1: Abelian HSP on Z_2^n (Simon) — quantum O(n) queries vs classical Theta(2^n)"
    [ fmt_s "n"; fmt_s "|G|"; fmt_s "q-quant"; fmt_s "q-class"; fmt_s "classical"; fmt_s "ok"; fmt_s "sec" ];
  List.iter
    (fun n ->
      let mask = Array.init n (fun i -> if i mod 3 = 0 then 1 else 0) in
      let inst = Instances.simon ~n ~mask in
      let gens, sec =
        time_it (fun () -> Abelian_hsp.solve rng inst.Instances.group inst.Instances.hiding)
      in
      let c, q = Hiding.total_queries inst.Instances.hiding in
      let ok = Group.subgroup_equal inst.Instances.group gens inst.Instances.hidden_gens in
      (* classical baseline on a fresh instance *)
      let inst2 = Instances.simon ~n ~mask in
      ignore (Classical.brute_force inst2.Instances.group inst2.Instances.hiding);
      let c_base, _ = Hiding.total_queries inst2.Instances.hiding in
      row
        [ fmt_i n; fmt_i (1 lsl n); fmt_i q; fmt_i c; fmt_i c_base;
          fmt_s (string_of_bool ok); fmt_f sec ])
    [ 3; 4; 5; 6; 7; 8; 9; 10; 11; 12 ];
  header "E1b: Abelian HSP on mixed cyclic products"
    [ fmt_s "group"; fmt_s "|G|"; fmt_s "q-quant"; fmt_s "ok"; fmt_s "sec" ];
  List.iter
    (fun dims ->
      let inst = Instances.abelian_random rng ~dims in
      let gens, sec =
        time_it (fun () -> Abelian_hsp.solve rng inst.Instances.group inst.Instances.hiding)
      in
      let _, q = Hiding.total_queries inst.Instances.hiding in
      let ok = Group.subgroup_equal inst.Instances.group gens inst.Instances.hidden_gens in
      row
        [ fmt_s (String.concat "x" (List.map string_of_int (Array.to_list dims)));
          fmt_i (Array.fold_left ( * ) 1 dims); fmt_i q; fmt_s (string_of_bool ok); fmt_f sec ])
    [ [| 16 |]; [| 4; 6 |]; [| 9; 8 |]; [| 5; 5; 4 |]; [| 2; 3; 4; 5 |] ];
  (* ablation: how many Fourier-sampling rounds does exact recovery
     need?  (The Las Vegas solver verifies and resamples; this shows
     why its first batch of ~log|G| rounds almost always suffices.) *)
  header "E1c: ablation — recovery rate vs number of sampling rounds (Simon n=6, 50 trials)"
    [ fmt_s "rounds"; fmt_s "recovered"; fmt_s "rate" ];
  let n = 6 in
  let mask = [| 1; 0; 1; 1; 0; 1 |] in
  let inst = Instances.simon ~n ~mask in
  let dims = Array.make n 2 in
  let f tuple = inst.Instances.hiding.Hiding.raw tuple in
  let draw = Quantum.Coset_state.sampler ~dims ~f ~queries:inst.Instances.hiding.Hiding.quantum () in
  List.iter
    (fun rounds ->
      let hits = ref 0 in
      for _ = 1 to 50 do
        let samples = List.init rounds (fun _ -> draw rng) in
        let gens = Quantum.Coset_state.annihilator_subgroup ~dims samples in
        if Group.subgroup_equal inst.Instances.group gens inst.Instances.hidden_gens then
          incr hits
      done;
      row [ fmt_i rounds; fmt_i !hits; fmt_f (float_of_int !hits /. 50.0) ])
    [ 1; 2; 3; 4; 5; 6; 8; 10; 14 ]

(* ------------------------------------------------------------------ *)
(* E2: Shor oracles (Theorem 4 hypotheses)                            *)
(* ------------------------------------------------------------------ *)

let e2 () =
  header "E2a: quantum order finding in Z_N^* — queries stay flat as N grows"
    [ fmt_s "N"; fmt_s "elt"; fmt_s "order"; fmt_s "queries"; fmt_s "sec" ];
  List.iter
    (fun (n, a) ->
      let queries = Quantum.Query.create () in
      let o, sec =
        time_it (fun () ->
            Quantum.Shor.find_order rng
              ~pow:(fun k -> Numtheory.Arith.powmod a k n)
              ~order_bound:n ~queries)
      in
      row
        [ fmt_i n; fmt_i a;
          fmt_s (match o with Some o -> string_of_int o | None -> "fail");
          fmt_i (Quantum.Query.count queries); fmt_f sec ])
    [ (15, 2); (25, 2); (77, 3); (123, 2); (255, 2); (501, 5) ];
  header "E2b: factoring via order finding"
    [ fmt_s "N"; fmt_s "factors"; fmt_s "sec" ];
  List.iter
    (fun n ->
      let r, sec = time_it (fun () -> Quantum.Shor.factor rng n) in
      row
        [ fmt_i n;
          fmt_s (match r with Some (a, b) -> Printf.sprintf "%d*%d" a b | None -> "fail");
          fmt_f sec ])
    [ 15; 21; 35; 91; 143; 221 ];
  header "E2c: discrete log in Z_p^* (Abelian HSP form)"
    [ fmt_s "p"; fmt_s "base"; fmt_s "planted"; fmt_s "found"; fmt_s "sec" ];
  List.iter
    (fun (p, g, l) ->
      let h = Numtheory.Arith.powmod g l p in
      let found, sec = time_it (fun () -> Dlog.discrete_log rng ~p ~g ~h) in
      row
        [ fmt_i p; fmt_i g; fmt_i l;
          fmt_s (match found with Some x -> string_of_int x | None -> "fail");
          fmt_f sec ])
    [ (23, 5, 9); (101, 2, 37); (211, 3, 113); (401, 3, 251) ]

(* ------------------------------------------------------------------ *)
(* E3: hidden normal subgroups (Theorem 8)                            *)
(* ------------------------------------------------------------------ *)

let e3 () =
  header
    "E3: hidden normal subgroup (Thm 8) — f-queries scale with |G/N|, classical with |G|"
    [ fmt_s "group"; fmt_s "|G|"; fmt_s "|G/N|"; fmt_s "q-class"; fmt_s "classical"; fmt_s "ok"; fmt_s "sec" ];
  let run_dihedral n d =
    let inst = Instances.dihedral_rotation ~n ~d in
    let res, sec =
      time_it (fun () -> Normal_hsp.solve rng inst.Instances.group inst.Instances.hiding)
    in
    let c, _ = Hiding.total_queries inst.Instances.hiding in
    let ok =
      Group.subgroup_equal inst.Instances.group res.Normal_hsp.generators
        inst.Instances.hidden_gens
    in
    let inst2 = Instances.dihedral_rotation ~n ~d in
    ignore (Classical.brute_force inst2.Instances.group inst2.Instances.hiding);
    let c_base, _ = Hiding.total_queries inst2.Instances.hiding in
    row
      [ fmt_s (Printf.sprintf "D_%d/s^%d" n d); fmt_i (2 * n);
        fmt_i res.Normal_hsp.quotient_order; fmt_i c; fmt_i c_base;
        fmt_s (string_of_bool ok); fmt_f sec ]
  in
  (* growing group, fixed quotient: queries should stay flat *)
  List.iter (fun n -> run_dihedral n 2) [ 12; 24; 48; 96; 192 ];
  (* fixed group, growing quotient: queries should grow with |G/N| *)
  List.iter (fun d -> run_dihedral 96 d) [ 2; 4; 8; 16 ];
  (* permutation groups *)
  let inst = Instances.perm_normal_klein () in
  let res, sec =
    time_it (fun () -> Normal_hsp.solve rng inst.Instances.group inst.Instances.hiding)
  in
  let c, _ = Hiding.total_queries inst.Instances.hiding in
  let ok =
    Group.subgroup_equal inst.Instances.group res.Normal_hsp.generators
      inst.Instances.hidden_gens
  in
  row
    [ fmt_s "S4/V4"; fmt_i 24; fmt_i res.Normal_hsp.quotient_order; fmt_i c; fmt_i 25;
      fmt_s (string_of_bool ok); fmt_f sec ];
  let s4 = Perm.symmetric 4 in
  let a4_inst = Instances.make ~name:"A4" s4 (Group.elements (Perm.alternating 4)) in
  let res, sec =
    time_it (fun () -> Normal_hsp.solve rng s4 a4_inst.Instances.hiding)
  in
  let c, _ = Hiding.total_queries a4_inst.Instances.hiding in
  let ok = Group.subgroup_equal s4 res.Normal_hsp.generators a4_inst.Instances.hidden_gens in
  row
    [ fmt_s "S4/A4"; fmt_i 24; fmt_i res.Normal_hsp.quotient_order; fmt_i c; fmt_i 25;
      fmt_s (string_of_bool ok); fmt_f sec ];
  (* solvable metacyclic groups: Frobenius and affine translations *)
  let metacyclic name inst size =
    let res, sec =
      time_it (fun () -> Normal_hsp.solve rng inst.Instances.group inst.Instances.hiding)
    in
    let c, _ = Hiding.total_queries inst.Instances.hiding in
    let ok =
      Group.subgroup_equal inst.Instances.group res.Normal_hsp.generators
        inst.Instances.hidden_gens
    in
    row
      [ fmt_s name; fmt_i size; fmt_i res.Normal_hsp.quotient_order; fmt_i c; fmt_i (size + 1);
        fmt_s (string_of_bool ok); fmt_f sec ]
  in
  metacyclic "F21/Z7" (Instances.frobenius_translations ~p:7 ~q:3) 21;
  metacyclic "F55/Z11" (Instances.frobenius_translations ~p:11 ~q:5) 55;
  metacyclic "F253/Z23" (Instances.frobenius_translations ~p:23 ~q:11) 253;
  metacyclic "AGL5/Z5" (Instances.affine_translations ~p:5) 20;
  metacyclic "AGL13/Z13" (Instances.affine_translations ~p:13) 156

(* ------------------------------------------------------------------ *)
(* E4: small commutator subgroup (Theorem 11 / Corollary 12)          *)
(* ------------------------------------------------------------------ *)

let e4 () =
  header "E4: HSP in extra-special H_p (Cor 12) — cost poly(input + p), classical p^3"
    [ fmt_s "p"; fmt_s "|G|"; fmt_s "|G'|"; fmt_s "q-quant"; fmt_s "q-class"; fmt_s "classical"; fmt_s "ok"; fmt_s "sec" ];
  List.iter
    (fun p ->
      let inst = Instances.heisenberg_random rng ~p ~m:1 in
      let res, sec =
        time_it (fun () ->
            Small_commutator.solve rng inst.Instances.group inst.Instances.hiding)
      in
      let c, q = Hiding.total_queries inst.Instances.hiding in
      let ok =
        Group.subgroup_equal inst.Instances.group res.Small_commutator.generators
          inst.Instances.hidden_gens
      in
      row
        [ fmt_i p; fmt_i (p * p * p); fmt_i res.Small_commutator.commutator_order;
          fmt_i q; fmt_i c; fmt_i (p * p * p); fmt_s (string_of_bool ok); fmt_f sec ])
    [ 2; 3; 5; 7; 11 ];
  header "E4b: ablation — direct Abelian sampling vs the literal Theorem-8 route"
    [ fmt_s "p"; fmt_s "route"; fmt_s "q-class"; fmt_s "ok"; fmt_s "sec" ];
  List.iter
    (fun p ->
      let inst = Instances.heisenberg_random rng ~p ~m:1 in
      let res, sec =
        time_it (fun () ->
            Small_commutator.solve rng inst.Instances.group inst.Instances.hiding)
      in
      let c, _ = Hiding.total_queries inst.Instances.hiding in
      let ok =
        Group.subgroup_equal inst.Instances.group res.Small_commutator.generators
          inst.Instances.hidden_gens
      in
      row [ fmt_i p; fmt_s "abelian"; fmt_i c; fmt_s (string_of_bool ok); fmt_f sec ];
      let inst = Instances.heisenberg_random rng ~p ~m:1 in
      let res, sec =
        time_it (fun () ->
            Small_commutator.solve_via_theorem8 rng inst.Instances.group inst.Instances.hiding)
      in
      let c, _ = Hiding.total_queries inst.Instances.hiding in
      let ok =
        Group.subgroup_equal inst.Instances.group res.Small_commutator.generators
          inst.Instances.hidden_gens
      in
      row [ fmt_i p; fmt_s "thm8"; fmt_i c; fmt_s (string_of_bool ok); fmt_f sec ])
    [ 3; 5 ];
  header "E4c: dicyclic Q_4n — |G'| = n grows with the group (no separation, still correct)"
    [ fmt_s "n"; fmt_s "|G|"; fmt_s "|G'|"; fmt_s "q-quant"; fmt_s "q-class"; fmt_s "ok"; fmt_s "sec" ];
  List.iter
    (fun n ->
      let inst = Instances.dicyclic_random rng ~n in
      let res, sec =
        time_it (fun () ->
            Small_commutator.solve rng inst.Instances.group inst.Instances.hiding)
      in
      let c, q = Hiding.total_queries inst.Instances.hiding in
      let ok =
        Group.subgroup_equal inst.Instances.group res.Small_commutator.generators
          inst.Instances.hidden_gens
      in
      row
        [ fmt_i n; fmt_i (4 * n); fmt_i res.Small_commutator.commutator_order; fmt_i q;
          fmt_i c; fmt_s (string_of_bool ok); fmt_f sec ])
    [ 2; 4; 8; 16; 32 ]

(* ------------------------------------------------------------------ *)
(* E5: Theorem 13 general case — wreath products, vs Rötteler–Beth    *)
(* ------------------------------------------------------------------ *)

let e5 () =
  header "E5: HSP in Z_2^k wr Z_2 (Thm 13 general) vs Rötteler–Beth vs classical"
    [ fmt_s "k"; fmt_s "|G|"; fmt_s "algo"; fmt_s "q-quant"; fmt_s "q-class"; fmt_s "ok"; fmt_s "sec" ];
  List.iter
    (fun k ->
      let order = 1 lsl ((2 * k) + 1) in
      let inst = Instances.wreath_random rng ~k in
      let res, sec =
        time_it (fun () ->
            Elem_abelian2.solve_general rng inst.Instances.group
              ~n_gens:(Wreath.base_gens k) inst.Instances.hiding)
      in
      let c, q = Hiding.total_queries inst.Instances.hiding in
      let ok =
        Group.subgroup_equal inst.Instances.group res.Elem_abelian2.generators
          inst.Instances.hidden_gens
      in
      row
        [ fmt_i k; fmt_i order; fmt_s "thm13"; fmt_i q; fmt_i c;
          fmt_s (string_of_bool ok); fmt_f sec ];
      Hiding.reset inst.Instances.hiding;
      let rb, sec =
        time_it (fun () -> Roetteler_beth.solve rng ~k inst.Instances.hiding)
      in
      let c, q = Hiding.total_queries inst.Instances.hiding in
      let ok = Group.subgroup_equal inst.Instances.group rb inst.Instances.hidden_gens in
      row
        [ fmt_i k; fmt_i order; fmt_s "RB"; fmt_i q; fmt_i c;
          fmt_s (string_of_bool ok); fmt_f sec ];
      Hiding.reset inst.Instances.hiding;
      let bf, sec =
        time_it (fun () -> Classical.brute_force inst.Instances.group inst.Instances.hiding)
      in
      let c, _ = Hiding.total_queries inst.Instances.hiding in
      let ok = Group.subgroup_equal inst.Instances.group bf inst.Instances.hidden_gens in
      row
        [ fmt_i k; fmt_i order; fmt_s "classic"; fmt_i 0; fmt_i c;
          fmt_s (string_of_bool ok); fmt_f sec ])
    [ 2; 3; 4; 5 ];
  header "E5b: non-cyclic factor group — Z_2^4 x| V_4 (Thm 13 general, |G/N| = 4)"
    [ fmt_s "|G|"; fmt_s "|G/N|"; fmt_s "q-quant"; fmt_s "q-class"; fmt_s "ok"; fmt_s "sec" ];
  let top =
    [ Perm.of_cycles 4 [ [ 0; 1 ]; [ 2; 3 ] ]; Perm.of_cycles 4 [ [ 0; 2 ]; [ 1; 3 ] ] ]
  in
  let g = Semidirect_perm.group ~n:4 ~top in
  let n_gens = Semidirect_perm.base_gens ~n:4 in
  for _ = 1 to 3 do
    let h_gens = Group.random_subgroup_gens rng g in
    let inst = Instances.make ~name:"Z2^4:V4" g h_gens in
    let res, sec =
      time_it (fun () -> Elem_abelian2.solve_general rng g ~n_gens inst.Instances.hiding)
    in
    let c, q = Hiding.total_queries inst.Instances.hiding in
    let ok =
      Group.subgroup_equal g res.Elem_abelian2.generators inst.Instances.hidden_gens
    in
    row
      [ fmt_i (Group.order g); fmt_i res.Elem_abelian2.quotient_order; fmt_i q; fmt_i c;
        fmt_s (string_of_bool ok); fmt_f sec ]
  done

(* ------------------------------------------------------------------ *)
(* E6: Theorem 13 cyclic-factor case — Z_2^n x| Z_m                   *)
(* ------------------------------------------------------------------ *)

let e6 () =
  header "E6: HSP in Z_2^n x| Z_m (Thm 13, cyclic factor) — |V| = O(log |G/N|)"
    [ fmt_s "n"; fmt_s "m"; fmt_s "|G|"; fmt_s "|V|"; fmt_s "q-quant"; fmt_s "q-class"; fmt_s "ok"; fmt_s "sec" ];
  List.iter
    (fun (n, m) ->
      let inst = Instances.semidirect_random rng ~n ~m in
      let res, sec =
        time_it (fun () ->
            Elem_abelian2.solve_cyclic rng inst.Instances.group
              ~n_gens:(Semidirect.base_gens ~n) inst.Instances.hiding)
      in
      let c, q = Hiding.total_queries inst.Instances.hiding in
      let ok =
        Group.subgroup_equal inst.Instances.group res.Elem_abelian2.generators
          inst.Instances.hidden_gens
      in
      row
        [ fmt_i n; fmt_i m; fmt_i ((1 lsl n) * m); fmt_i res.Elem_abelian2.transversal_size;
          fmt_i q; fmt_i c; fmt_s (string_of_bool ok); fmt_f sec ])
    [ (3, 3); (4, 2); (4, 4); (6, 2); (6, 3); (6, 6); (8, 2); (8, 4); (10, 2) ];
  (* the paper's own Section 6 matrix family *)
  header "E6b: Section 6 matrix groups over GF(2)"
    [ fmt_s "k"; fmt_s "|G|"; fmt_s "q-quant"; fmt_s "ok"; fmt_s "sec" ];
  List.iter
    (fun (a, vs) ->
      let k = Array.length a in
      let g = Matrix_group.section6_group ~p:2 ~a vs in
      let n_gens = Group.normal_closure g (Matrix_group.section6_normal_gens ~p:2 ~k vs) in
      let hidden = [ Matrix_group.section6_type_b ~p:2 ~k (Array.make k 1) ] in
      let inst = Instances.make ~name:"sec6" g hidden in
      let res, sec =
        time_it (fun () -> Elem_abelian2.solve_cyclic rng g ~n_gens inst.Instances.hiding)
      in
      let _, q = Hiding.total_queries inst.Instances.hiding in
      let ok =
        Group.subgroup_equal g res.Elem_abelian2.generators inst.Instances.hidden_gens
      in
      row
        [ fmt_i k; fmt_i (Group.order g); fmt_i q; fmt_s (string_of_bool ok); fmt_f sec ])
    [
      ([| [| 0; 1 |]; [| 1; 1 |] |], [ [| 1; 0 |]; [| 0; 1 |] ]);
      ( [| [| 0; 1; 0 |]; [| 0; 0; 1 |]; [| 1; 0; 0 |] |],
        [ [| 1; 0; 0 |]; [| 0; 1; 0 |]; [| 0; 0; 1 |] ] );
    ]

(* ------------------------------------------------------------------ *)
(* E7: Ettinger–Høyer contrast on dihedral groups                     *)
(* ------------------------------------------------------------------ *)

let e7 () =
  header
    "E7: Ettinger-Hoyer on D_n — O(log n) queries but Theta(n) classical post-processing"
    [ fmt_s "n"; fmt_s "|G|"; fmt_s "q-quant"; fmt_s "scanned"; fmt_s "classical"; fmt_s "ok"; fmt_s "sec" ];
  List.iter
    (fun n ->
      let d = (n / 3) + 1 in
      let inst = Instances.dihedral_reflection ~n ~d in
      let res, sec = time_it (fun () -> Ettinger_hoyer.solve rng ~n inst.Instances.hiding) in
      let _, q = Hiding.total_queries inst.Instances.hiding in
      let inst2 = Instances.dihedral_reflection ~n ~d in
      ignore (Classical.brute_force inst2.Instances.group inst2.Instances.hiding);
      let c_base, _ = Hiding.total_queries inst2.Instances.hiding in
      match res with
      | Some r ->
          row
            [ fmt_i n; fmt_i (2 * n); fmt_i q; fmt_i r.Ettinger_hoyer.candidates_scanned;
              fmt_i c_base; fmt_s (string_of_bool (r.Ettinger_hoyer.slope = d)); fmt_f sec ]
      | None ->
          row [ fmt_i n; fmt_i (2 * n); fmt_i q; fmt_s "-"; fmt_i c_base; fmt_s "fail"; fmt_f sec ])
    [ 8; 16; 32; 64; 128; 256 ]

(* ------------------------------------------------------------------ *)
(* E8: constructive membership (Theorem 6)                            *)
(* ------------------------------------------------------------------ *)

let e8 () =
  header "E8: constructive membership in Abelian subgroups (Thm 6)"
    [ fmt_s "ambient"; fmt_s "exponent"; fmt_s "member"; fmt_s "q-quant"; fmt_s "sec" ];
  let run name g hs target bound =
    let queries = Quantum.Query.create () in
    let res, sec =
      time_it (fun () -> Membership.express rng g ~hs target ~order_bound:bound ~queries)
    in
    row
      [ fmt_s name; fmt_i bound;
        fmt_s (match res with Some _ -> "yes" | None -> "no");
        fmt_i (Quantum.Query.count queries); fmt_f sec ]
  in
  let z = Cyclic.product [| 12; 18 |] in
  run "Z12xZ18" z [ [| 2; 3 |]; [| 0; 6 |] ] [| 4; 0 |] 36;
  run "Z12xZ18" z [ [| 2; 3 |]; [| 0; 6 |] ] [| 1; 0 |] 36;
  let z2 = Cyclic.product [| 16; 9 |] in
  run "Z16xZ9" z2 [ [| 2; 0 |]; [| 0; 3 |] ] [| 6; 6 |] 144;
  let s6 = Perm.symmetric 6 in
  let a = Perm.of_cycles 6 [ [ 0; 1; 2 ] ] and b = Perm.of_cycles 6 [ [ 3; 4 ] ] in
  run "S_6" s6 [ a; b ] (Perm.compose a b) 6;
  (* b commutes with a but lies outside <a>: a negative instance *)
  run "S_6" s6 [ a ] b 6

(* ------------------------------------------------------------------ *)
(* E9: exhaustive correctness sweeps over full subgroup lattices      *)
(* ------------------------------------------------------------------ *)

let e9 () =
  header
    "E9: exhaustive sweeps — every subgroup of each group solved by the applicable theorem"
    [ fmt_s "group"; fmt_s "|G|"; fmt_s "thm"; fmt_s "#subs"; fmt_s "solved"; fmt_s "sec" ];
  let sweep_thm11 : 'a. string -> 'a Group.t -> unit =
   fun name g ->
    let r = Random.State.make [| Hashtbl.hash name |] in
    let subs = Subgroup_lattice.all_subgroups g in
    let solved = ref 0 in
    let _, sec =
      time_it (fun () ->
          List.iter
            (fun h_elems ->
              let inst = Instances.make ~name g h_elems in
              let gens = Small_commutator.solve_gens r g inst.Instances.hiding in
              if Group.subgroup_equal g gens inst.Instances.hidden_gens then incr solved)
            subs)
    in
    row
      [ fmt_s name; fmt_i (Group.order g); fmt_s "11"; fmt_i (List.length subs);
        fmt_i !solved; fmt_f sec ]
  in
  sweep_thm11 "D_4" (Dihedral.group 4);
  sweep_thm11 "D_6" (Dihedral.group 6);
  sweep_thm11 "Q_8" (Dicyclic.group 2);
  sweep_thm11 "Q_12" (Dicyclic.group 3);
  sweep_thm11 "H_3" (Extraspecial.group ~p:3 ~m:1);
  sweep_thm11 "F_21" (Metacyclic.frobenius ~p:7 ~q:3);
  (* wreath k = 2 through Theorem 13 *)
  let r = Random.State.make [| 777 |] in
  let g = Wreath.group 2 in
  let subs = Subgroup_lattice.all_subgroups g in
  let solved = ref 0 in
  let _, sec =
    time_it (fun () ->
        List.iter
          (fun h_elems ->
            let inst = Instances.make ~name:"w2" g h_elems in
            let res =
              Elem_abelian2.solve_general r g ~n_gens:(Wreath.base_gens 2)
                inst.Instances.hiding
            in
            if Group.subgroup_equal g res.Elem_abelian2.generators inst.Instances.hidden_gens
            then incr solved)
          subs)
  in
  row
    [ fmt_s "w(k=2)"; fmt_i 32; fmt_s "13"; fmt_i (List.length subs); fmt_i !solved;
      fmt_f sec ];
  (* normal subgroups of S_4 through Theorem 8 *)
  let r = Random.State.make [| 888 |] in
  let s4 = Perm.symmetric 4 in
  let normals = Subgroup_lattice.normal_subgroups s4 in
  let solved = ref 0 in
  let _, sec =
    time_it (fun () ->
        List.iter
          (fun n_elems ->
            let inst = Instances.make ~name:"S4" s4 n_elems in
            let res = Normal_hsp.solve r s4 inst.Instances.hiding in
            if Group.subgroup_equal s4 res.Normal_hsp.generators inst.Instances.hidden_gens
            then incr solved)
          normals)
  in
  row
    [ fmt_s "S_4 (nrm)"; fmt_i 24; fmt_s "8"; fmt_i (List.length normals); fmt_i !solved;
      fmt_f sec ]

(* ------------------------------------------------------------------ *)
(* E10: dense vs sparse state-vector backends                         *)
(* ------------------------------------------------------------------ *)

let e10 () =
  header
    "E10: dense vs sparse backend — planted Abelian HSP on Z_d1 x Z_d2, H = prod m_i Z_di"
    [ fmt_s "dims"; fmt_s "|G|"; fmt_s "backend"; fmt_s "jobs"; fmt_s "q-quant";
      fmt_s "gates"; fmt_s "dft-fib"; fmt_s "peak-sup"; fmt_s "peak-dns"; fmt_s "ok";
      fmt_s "claim"; fmt_s "sec" ];
  let solve_planted ~dims ~moduli ~backend =
    let r = Array.length dims in
    let coset x0 =
      let rec go i acc =
        if i < 0 then acc
        else
          let reps = dims.(i) / moduli.(i) in
          let choices =
            List.init reps (fun k -> (x0.(i) + (k * moduli.(i))) mod dims.(i))
          in
          go (i - 1)
            (List.concat_map (fun suffix -> List.map (fun c -> c :: suffix) choices) acc)
      in
      List.map Array.of_list (go (r - 1) [ [] ])
    in
    let queries = Quantum.Query.create () in
    let draw = Quantum.Coset_state.sampler_with_support ~backend ~dims ~coset ~queries () in
    let in_h x = Array.for_all2 (fun xi m -> xi mod m = 0) x moduli in
    let f x = Quantum.Backend.encode moduli (Array.map2 (fun xi m -> xi mod m) x moduli) in
    Quantum.Metrics.reset ();
    let (gens, _), sec =
      time_it (fun () ->
          Abelian_hsp.solve_dims rng ~draw ~dims ~f ~quantum:queries ~verify:in_h ())
    in
    let ok = gens <> [] && List.for_all in_h gens in
    (ok, Quantum.Query.count queries, sec, Quantum.Metrics.snapshot ())
  in
  let total dims = Array.fold_left ( * ) 1 dims in
  let show dims = String.concat "x" (List.map string_of_int (Array.to_list dims)) in
  List.iter
    (fun (dims, moduli) ->
      List.iter
        (fun backend ->
          if backend = Quantum.Backend.Dense && total dims > Quantum.State.max_total_dim then
            row
              [ fmt_s (show dims); fmt_i (total dims); fmt_s "dense";
                fmt_i (Quantum.Parallel.jobs ()); fmt_s "-"; fmt_s "-"; fmt_s "-"; fmt_s "-";
                fmt_s "-"; fmt_s "-"; fmt_s "-"; fmt_s "(>cap)" ]
          else begin
            let ok, q, sec, m = solve_planted ~dims ~moduli ~backend in
            let params = Analysis.Cost_check.params ~group_order:(total dims) () in
            row
              [ fmt_s (show dims); fmt_i (total dims);
                fmt_s (Quantum.Backend.choice_to_string backend);
                fmt_i (Quantum.Parallel.jobs ()); fmt_i q;
                fmt_i (m.Quantum.Metrics.gate_apps + m.Quantum.Metrics.dft_apps);
                fmt_i m.Quantum.Metrics.dft_fibres; fmt_i m.Quantum.Metrics.peak_support;
                fmt_i m.Quantum.Metrics.peak_dense_alloc; fmt_s (string_of_bool ok);
                fmt_s (claim_cell "3" ~params ~queries:q m); fmt_f sec ]
          end)
        [ Quantum.Backend.Dense; Quantum.Backend.Sparse ])
    [
      ([| 64; 64 |], [| 8; 8 |]);
      ([| 512; 512 |], [| 16; 32 |]);
      ([| 8192; 8192 |], [| 64; 128 |]);
    ]

(* ------------------------------------------------------------------ *)
(* E11: multicore dense backend — domain-pool scaling + determinism   *)
(* ------------------------------------------------------------------ *)

(* Each workload runs through the determinism matrix at jobs = 1, 2
   and 4 with a digest over every sampled outcome; the ok column is the
   matrix verdict (digest AND ledger equal to the jobs=1 baseline).
   The speedup column reflects the machine's available cores; on a
   single-core host the parallel rows cost pool overhead and speedup
   hovers at or below 1. *)
let e11 () =
  header
    "E11: dense backend domain-pool scaling — bit-identical results required at every job count"
    [ fmt_s "workload"; fmt_s "|G|"; fmt_s "jobs"; fmt_s "digest"; fmt_s "ok";
      fmt_s "speedup"; fmt_s "sec" ];
  let counters (m : Quantum.Metrics.snapshot) = [ m.peak_dense_alloc ] in
  let run_workload name total f =
    let rows =
      determinism_matrix ~label:("E11 " ^ name) ~seed:0xe11 ~counters jobs_ladder (fun rng ->
          time_it (fun () -> f rng))
    in
    let _, _, _, _, base_sec = List.hd rows in
    List.iter
      (fun (jobs, _, digest, ok, sec) ->
        row
          [ fmt_s name; fmt_i total; fmt_i jobs; fmt_s (short_hex digest);
            fmt_s (string_of_bool ok); fmt_f (base_sec /. Float.max 1e-9 sec); fmt_f sec ])
      rows
  in
  (* (a) Coset-state Fourier sampling on two large cyclic wires: the
     QFT fast path (FFT over long fibres) plus full-register
     measurement on growing dense registers (2^18, 2^20, 2^22). *)
  let show dims = String.concat "x" (List.map string_of_int (Array.to_list dims)) in
  List.iter
    (fun (dims, moduli, rounds) ->
      let r = Array.length dims in
      let coset x0 =
        let rec go i acc =
          if i < 0 then acc
          else
            let reps = dims.(i) / moduli.(i) in
            let choices =
              List.init reps (fun k -> (x0.(i) + (k * moduli.(i))) mod dims.(i))
            in
            go (i - 1)
              (List.concat_map (fun suffix -> List.map (fun c -> c :: suffix) choices) acc)
        in
        List.map Array.of_list (go (r - 1) [ [] ])
      in
      run_workload (show dims)
        (Array.fold_left ( * ) 1 dims)
        (fun rng ->
          let queries = Quantum.Query.create () in
          let draw =
            Quantum.Coset_state.sampler_with_support ~backend:Quantum.Backend.Dense ~dims
              ~coset ~queries ()
          in
          let buf = Buffer.create 256 in
          for _ = 1 to rounds do
            add_outcome buf (draw rng)
          done;
          Digest.string (Buffer.contents buf)))
    [
      ([| 512; 512 |], [| 16; 32 |], 6);
      ([| 1024; 1024 |], [| 32; 32 |], 4);
      ([| 2048; 2048 |], [| 64; 64 |], 2);
    ];
  (* (b) Many small wires (4^10 = 2^20): per-wire gates drive the
     gather/transform/scatter kernel over long rest-index loops, plus
     an oracle write and a basis shift — the kernels workload (a)'s
     FFT path does not touch. *)
  let dims = Array.make 10 4 in
  run_workload "4^10-wires"
    (Array.fold_left ( * ) 1 dims)
    (fun rng ->
      let st = ref (Quantum.State.uniform ~backend:Quantum.Backend.Dense dims) in
      let n = Array.length dims in
      for w = 0 to n - 1 do
        st := Quantum.State.apply_wire !st ~wire:w (Linalg.Cmat.dft dims.(w))
      done;
      st :=
        Quantum.State.apply_oracle_add !st ~in_wires:[ 0; 1; 2 ] ~out_wire:(n - 1)
          ~f:(fun x -> Array.fold_left ( + ) 0 x mod dims.(n - 1));
      st :=
        Quantum.State.apply_basis_map !st (fun x ->
            Array.mapi (fun i xi -> (xi + i) mod dims.(i)) x);
      let buf = Buffer.create 256 in
      for _ = 1 to 3 do
        let outcome, post = Quantum.State.measure rng !st ~wires:[ 0; 3; 7 ] in
        st := post;
        add_outcome buf outcome
      done;
      Digest.string (Buffer.contents buf))

(* ------------------------------------------------------------------ *)
(* E12: sparse coset sampling — shared O(|G|) prep, O(|coset|) rounds *)
(* ------------------------------------------------------------------ *)

(* The sorted-segment sparse backend on a 2^20..2^26 instance ladder at
   jobs = 1, 2 and 4, against the retained hashtable backend
   ([Quantum.Backend_htbl]) re-running the pre-segment recipe: one
   O(|G|) support scan per sample.  The prep column is the segment
   sampler's one-time oracle bucketing pass (first draw; sampler_preps
   stays at 1 however many rounds follow); sec is the remaining rounds,
   the per-sample O(|coset|) regime that the jobs column can scale.
   As in E11, ok is the determinism-matrix verdict — digest AND ledger
   equal to the jobs=1 baseline — and any divergence fails the run.
   The htbl row's speedup cell is htbl seconds over the segment
   backend's jobs=1 total (prep included): the single-thread gain of
   bucketing once instead of scanning every round. *)
let e12 () =
  header
    "E12: sparse coset sampling ladder — O(|G|) prep shared across rounds, bit-identical at every job count"
    [ fmt_s "dims"; fmt_s "|G|"; fmt_s "backend"; fmt_s "jobs"; fmt_s "support";
      fmt_s "compact"; fmt_s "visits"; fmt_s "digest"; fmt_s "ok"; fmt_s "prep";
      fmt_s "speedup"; fmt_s "sec" ];
  let counters (m : Quantum.Metrics.snapshot) =
    [ m.peak_support; m.pruned_amps; m.compactions; m.sampler_preps; m.coset_visits ]
  in
  let show dims = String.concat "x" (List.map string_of_int (Array.to_list dims)) in
  List.iter
    (fun (dims, moduli, rounds) ->
      let total = Array.fold_left ( * ) 1 dims in
      let f x =
        Quantum.Backend.encode moduli (Array.map2 (fun xi m -> xi mod m) x moduli)
      in
      let rows =
        determinism_matrix ~label:("E12 " ^ show dims) ~seed:0xe12 ~counters jobs_ladder
          (fun rng ->
            let queries = Quantum.Query.create () in
            let draw =
              Quantum.Coset_state.sampler ~backend:Quantum.Backend.Sparse ~dims ~f
                ~queries ()
            in
            let buf = Buffer.create 256 in
            (* the first draw pays the shared bucketing pass *)
            let first, prep_sec = time_it (fun () -> draw rng) in
            add_outcome buf first;
            let (), sec =
              time_it (fun () ->
                  for _ = 1 to rounds do
                    add_outcome buf (draw rng)
                  done)
            in
            (Digest.string (Buffer.contents buf), (Quantum.Metrics.snapshot (), prep_sec, sec)))
      in
      let _, _, _, _, (_, base_prep, base_sec) = List.hd rows in
      List.iter
        (fun (jobs, _, digest, ok, ((m : Quantum.Metrics.snapshot), prep_sec, sec)) ->
          row
            [ fmt_s (show dims); fmt_i total; fmt_s "segment"; fmt_i jobs;
              fmt_i m.peak_support; fmt_i m.compactions; fmt_i m.coset_visits;
              fmt_s (short_hex digest); fmt_s (string_of_bool ok); fmt_f prep_sec;
              fmt_f (base_sec /. Float.max 1e-9 sec); fmt_f sec ])
        rows;
      (* hashtable baseline on the 2^22 rung: the pre-segment
         sampler's per-round O(|G|) support scan, serial and boxed *)
      if total = 1 lsl 22 then begin
        let wires = List.init (Array.length dims) (fun i -> i) in
        let peak = ref 0 in
        let htbl_round rng =
          let x0 = Random.State.int rng total in
          let t0 = f (Quantum.Backend.decode dims x0) in
          let support = ref [] in
          for idx = total - 1 downto 0 do
            let x = Quantum.Backend.decode dims idx in
            if Int.equal (f x) t0 then support := x :: !support
          done;
          let count = List.length !support in
          if count > !peak then peak := count;
          let amp = Linalg.Cx.re (1.0 /. sqrt (float_of_int count)) in
          let st =
            ref
              (Quantum.Backend_htbl.of_support dims
                 (List.map (fun x -> (x, amp)) !support))
          in
          List.iter
            (fun w -> st := Quantum.Backend_htbl.apply_dft !st ~wire:w ~inverse:false)
            wires;
          fst (Quantum.Backend_htbl.measure rng !st ~wires)
        in
        let rng = Random.State.make [| 0xe12 |] in
        let buf = Buffer.create 256 in
        let (), sec =
          time_it (fun () ->
              for _ = 0 to rounds do
                add_outcome buf (htbl_round rng)
              done)
        in
        let digest = Digest.string (Buffer.contents buf) in
        row
          [ fmt_s (show dims); fmt_i total; fmt_s "htbl"; fmt_i 1; fmt_i !peak;
            fmt_s "-"; fmt_s "-"; fmt_s (short_hex digest);
            fmt_s "-"; fmt_s "-";
            fmt_f (sec /. Float.max 1e-9 (base_prep +. base_sec)); fmt_f sec ]
      end)
    [
      ([| 1024; 1024 |], [| 16; 16 |], 6);
      ([| 2048; 2048 |], [| 16; 16 |], 4);
      ([| 4096; 4096 |], [| 32; 32 |], 3);
      ([| 8192; 8192 |], [| 64; 64 |], 2);
    ]

(* ------------------------------------------------------------------ *)
(* E13: symbolic coset-state backend (cryptographic group sizes).     *)
(*   a. scaling ladder Z_2^k, k = 20..120 — wall clock per sample and *)
(*      the symbolic ledger counters; every outcome is checked to     *)
(*      annihilate the hidden subgroup.                               *)
(*   b. differential gate — symbolic vs dense Fourier-sample          *)
(*      frequencies on small groups, two-sample chi-squared; any      *)
(*      divergence is a claim violation (nonzero exit).               *)
(*   c. one >= 2^100 instance per Theorem 3/6/8/11/13, solved through *)
(*      the symbolic sampler and verified exactly by canonical-HNF    *)
(*      subgroup equality.                                            *)
(* ------------------------------------------------------------------ *)

let e13 () =
  let module BS = Quantum.Backend_symbolic in
  let show dims = String.concat "x" (List.map string_of_int (Array.to_list dims)) in
  (* H = span{e_{2i} + e_{2i+1}} over Z_d^r: order d^(r/2), every coset
     proper, the same planted family the symbolic tests use. *)
  let pair_gens ~r =
    List.init (r / 2) (fun i ->
        Array.init r (fun j -> if j = (2 * i) || j = (2 * i) + 1 then 1 else 0))
  in
  let recover ~dims ~subgroup rounds =
    let queries = Quantum.Query.create () in
    let draw =
      Quantum.Coset_state.sampler_with_subgroup ~backend:Quantum.Backend.Symbolic ~dims
        ~subgroup ~queries ()
    in
    let ys = List.init rounds (fun _ -> draw rng) in
    (ys, Quantum.Coset_state.annihilator_subgroup ~dims ys, Quantum.Query.count queries)
  in
  header "E13a: symbolic backend scaling — Fourier sampling |x0 + H> in Z_2^k, |H| = 2^(k/2)"
    [ fmt_s "|G|"; fmt_s "log2|H|"; fmt_s "samples"; fmt_s "us/smp"; fmt_s "rewrite";
      fmt_s "draws"; fmt_s "solves"; fmt_s "demote"; fmt_s "sec" ];
  List.iter
    (fun k ->
      let dims = Array.make k 2 in
      let gens = pair_gens ~r:k in
      Quantum.Metrics.reset ();
      let queries = Quantum.Query.create () in
      let draw =
        Quantum.Coset_state.sampler_with_subgroup ~backend:Quantum.Backend.Symbolic ~dims
          ~subgroup:gens ~queries ()
      in
      let n = 100 in
      let samples, sec = time_it (fun () -> List.init n (fun _ -> draw rng)) in
      let m = Quantum.Metrics.snapshot () in
      let annihilates =
        List.for_all
          (fun y -> List.for_all (Quantum.Qft.character_is_trivial_on ~dims y) gens)
          samples
      in
      if not annihilates then begin
        incr claim_violations;
        Printf.printf "claim violation: E13a Z_2^%d symbolic sample outside the H-annihilator\n" k
      end;
      row
        [ fmt_s (Printf.sprintf "2^%d" k); fmt_i (k / 2); fmt_i n;
          fmt_f (1e6 *. sec /. float_of_int n);
          fmt_i m.Quantum.Metrics.symbolic_rewrites; fmt_i m.Quantum.Metrics.symbolic_samples;
          fmt_i m.Quantum.Metrics.symbolic_solves; fmt_i m.Quantum.Metrics.symbolic_demotions;
          fmt_f sec ])
    [ 20; 40; 60; 80; 100; 120 ];
  header "E13b: differential gate — symbolic vs dense sample frequencies (two-sample chi^2)"
    [ fmt_s "dims"; fmt_s "|G|"; fmt_s "n/side"; fmt_s "cells"; fmt_s "chi2"; fmt_s "thresh";
      fmt_s "ok" ];
  let chi2_gate dims gens n =
    let tally backend =
      let queries = Quantum.Query.create () in
      let draw =
        Quantum.Coset_state.sampler_with_subgroup ~backend ~dims ~subgroup:gens ~queries ()
      in
      let t = Hashtbl.create 64 in
      for _ = 1 to n do
        let y = Array.to_list (draw rng) in
        Hashtbl.replace t y (1 + Option.value ~default:0 (Hashtbl.find_opt t y))
      done;
      t
    in
    let a = tally Quantum.Backend.Symbolic in
    let b = tally Quantum.Backend.Dense in
    let cells = Hashtbl.create 64 in
    Hashtbl.iter (fun k _ -> Hashtbl.replace cells k ()) a;
    Hashtbl.iter (fun k _ -> Hashtbl.replace cells k ()) b;
    let stat = ref 0.0 in
    Hashtbl.iter
      (fun k () ->
        let ca = float_of_int (Option.value ~default:0 (Hashtbl.find_opt a k)) in
        let cb = float_of_int (Option.value ~default:0 (Hashtbl.find_opt b k)) in
        if ca +. cb > 0.0 then stat := !stat +. (((ca -. cb) ** 2.0) /. (ca +. cb)))
      cells;
    let ncells = Hashtbl.length cells in
    let df = float_of_int (max 1 (ncells - 1)) in
    let thresh = df +. (6.0 *. sqrt (2.0 *. df)) +. 10.0 in
    let ok = !stat < thresh in
    if not ok then begin
      incr claim_violations;
      Printf.printf "claim violation: E13b symbolic/dense divergence chi2=%.2f > %.2f on %s\n"
        !stat thresh (show dims)
    end;
    row
      [ fmt_s (show dims); fmt_i (Array.fold_left ( * ) 1 dims); fmt_i n; fmt_i ncells;
        fmt_f !stat; fmt_f thresh; fmt_s (string_of_bool ok) ]
  in
  chi2_gate [| 4; 6; 8 |] [ [| 2; 0; 0 |]; [| 0; 3; 4 |] ] 4000;
  chi2_gate [| 2; 2; 2; 2; 2 |] [ [| 1; 1; 0; 0; 0 |]; [| 0; 0; 1; 1; 1 |] ] 4000;
  chi2_gate [| 9; 3; 5 |] [ [| 3; 1; 0 |] ] 4000;
  header "E13c: theorem instances at >= 2^100 through the symbolic sampler"
    [ fmt_s "instance"; fmt_s "thm"; fmt_s "log2|G|"; fmt_s "queries"; fmt_s "ok"; fmt_s "sec" ];
  let emit name thm log2g queries ok sec =
    if not ok then begin
      incr claim_violations;
      Printf.printf "claim violation: E13c %s (Thm %s) failed exact verification\n" name thm
    end;
    row
      [ fmt_s name; fmt_s thm; fmt_f log2g; fmt_i queries; fmt_s (string_of_bool ok);
        fmt_f sec ]
  in
  (* Thm 3: Abelian HSP in Z_4^60 (|G| = 2^120), hidden H of order 2^60
     recovered as the annihilator of its Fourier samples. *)
  (let r = 60 in
   let dims = Array.make r 4 in
   let gens = pair_gens ~r in
   let (_, rec_gens, q), sec = time_it (fun () -> recover ~dims ~subgroup:gens (4 * r)) in
   let ok =
     BS.Subgroup.equal (BS.Subgroup.of_gens ~dims gens) (BS.Subgroup.of_gens ~dims rec_gens)
   in
   emit "Z_4^60" "3" 120.0 q ok sec);
  (* Thm 6: constructive membership in A = Z_8^37 (|A| = 2^111).  The
     quantum register is only the rank-4 coefficient group Z_8^4: the
     relation lattice of (h1, h2, h3, x) is hidden there, its coset
     states are sampled symbolically, and any recovered relation whose
     last coefficient is a unit mod 8 expresses x over h1..h3. *)
  (let n = 37 in
   let l = 8 in
   let dims4 = [| l; l; l; l |] in
   let hs = Array.init 3 (fun _ -> Array.init n (fun _ -> Random.State.int rng l)) in
   let secret = Array.init 3 (fun _ -> Random.State.int rng l) in
   let x =
     Array.init n (fun j ->
         ((secret.(0) * hs.(0).(j)) + (secret.(1) * hs.(1).(j)) + (secret.(2) * hs.(2).(j)))
         mod l)
   in
   let coeff_matrix =
     Array.init n (fun j -> [| hs.(0).(j); hs.(1).(j); hs.(2).(j); x.(j) |])
   in
   let lattice =
     List.map
       (fun v -> Array.map (fun c -> ((c mod l) + l) mod l) v)
       (Numtheory.Zmatrix.kernel_mod ~moduli:(Array.make n l) coeff_matrix)
   in
   let run () =
     let _, rec_gens, q = recover ~dims:dims4 ~subgroup:lattice 32 in
     let basis = BS.Subgroup.basis (BS.Subgroup.of_gens ~dims:dims4 rec_gens) in
     (* the relation (c1,c2,c3,-1) guarantees a basis row with a unit
        last coefficient; solve it for x's coordinates. *)
     let expressed =
       Array.to_list basis
       |> List.find_opt (fun a -> Numtheory.Arith.gcd a.(3) l = 1)
       |> Option.map (fun a ->
              let s = l - Numtheory.Arith.invmod a.(3) l in
              Array.init n (fun j ->
                  ((s * a.(0) * hs.(0).(j)) + (s * a.(1) * hs.(1).(j))
                  + (s * a.(2) * hs.(2).(j)))
                  mod l))
     in
     (expressed = Some x, q)
   in
   let (ok, q), sec = time_it run in
   emit "Z_8^37" "6" 111.0 q ok sec);
  (* Thm 8: hidden normal subgroup as the kernel of a planted
     surjection Z_2^110 ->> Z_2^3 (|G| = 2^110, quotient order 8). *)
  (let n = 110 in
   let dims = Array.make n 2 in
   let phi =
     Array.init 3 (fun i ->
         Array.init n (fun j -> if j < 3 then (if j = i then 1 else 0) else Random.State.int rng 2))
   in
   let kernel =
     List.map
       (fun v -> Array.map (fun c -> ((c mod 2) + 2) mod 2) v)
       (Numtheory.Zmatrix.kernel_mod ~moduli:(Array.make 3 2) phi)
   in
   let (_, rec_gens, q), sec = time_it (fun () -> recover ~dims ~subgroup:kernel 40) in
   let ok =
     BS.Subgroup.equal (BS.Subgroup.of_gens ~dims kernel)
       (BS.Subgroup.of_gens ~dims rec_gens)
   in
   emit "ker(2^110->2^3)" "8" 110.0 q ok sec);
  (* Thm 11: G of order 2^101 with |G'| = 2 — elements (v, t) in
     Z_2^100 x Z_2 with a central commutator bit.  The hidden subgroup
     contains G', so H/G' is hidden in G/G' ~ Z_2^100: solve that
     Abelian instance symbolically, then one classical query confirms
     the central lift. *)
  (let r = 100 in
   let dims = Array.make r 2 in
   let hbar = pair_gens ~r in
   let run () =
     let _, rec_gens, q = recover ~dims ~subgroup:hbar (4 * r) in
     let quotient_ok =
       BS.Subgroup.equal (BS.Subgroup.of_gens ~dims hbar)
         (BS.Subgroup.of_gens ~dims rec_gens)
     in
     (* classical lift query: G' <= H, so the central element's hiding
        value collides with the identity's. *)
     let hiding (_v, t) = if t = 0 || t = 1 then 0 else 1 in
     let lift_ok = hiding (Array.make r 0, 1) = hiding (Array.make r 0, 0) in
     (quotient_ok && lift_ok, q + 2)
   in
   let (ok, q), sec = time_it run in
   emit "2^101,|G'|=2" "11" 101.0 q ok sec);
  (* Thm 13: G = Z_2^100 x| Z_2 probed through the register Z_2^101.
     The planted elementary-Abelian H is generated by 49 base pairs
     (fixed by the top involution) plus one reflection (w, 1); on the
     probe register it is an Abelian hidden subgroup of order 2^50. *)
  (let n = 100 in
   let dims = Array.make (n + 1) 2 in
   let base =
     List.init 49 (fun i ->
         Array.init (n + 1) (fun j -> if j = (2 * i) || j = (2 * i) + 1 then 1 else 0))
   in
   let w = Array.init (n + 1) (fun j -> if j >= 98 then 1 else 0) in
   let gens = w :: base in
   let (_, rec_gens, q), sec = time_it (fun () -> recover ~dims ~subgroup:gens 420) in
   let ok =
     BS.Subgroup.equal (BS.Subgroup.of_gens ~dims gens) (BS.Subgroup.of_gens ~dims rec_gens)
   in
   emit "Z_2^100x|Z_2" "13" 101.0 q ok sec)

(* ------------------------------------------------------------------ *)
(* E14: hsp_served traffic replay — cached, batched service layer     *)
(* ------------------------------------------------------------------ *)

(* Engine-level replay (no socket): a seeded mixed workload over 18
   distinct planted oracles — 12 amplitude-routed, 6 symbolic — is
   submitted from 8 client threads, twice, against one engine.  Pass 1
   populates the artifact cache (each amplitude oracle pays its one
   O(|A|) CSR prep); pass 2 replays identical traffic warm.  The
   repeated-oracle slice then measures the cache's point: the same
   requests through a 1-entry cache thrashed between two oracles (so
   every request rebuilds its buckets) versus through a warm cache.
   Gates, counted as claim violations: total sampler_preps after both
   mixed passes must equal the number of distinct amplitude oracles
   (the warm pass preps nothing), and warm throughput must be at least
   5x the thrashed cold path. *)

let e14 () =
  let module Sv = Hsp_service.Service in
  let module Pr = Hsp_service.Protocol in
  let module Jv = Hsp_service.Jsonv in
  header "E14: hsp_served traffic replay — throughput, latency, cache hit rate"
    [ fmt_s "phase"; fmt_s "reqs"; fmt_s "thr"; fmt_s "req/s"; fmt_s "p50ms";
      fmt_s "p99ms"; fmt_s "hit%"; fmt_s "preps"; fmt_s "ok" ];
  (* 12 distinct amplitude instances and 6 symbolic ones (Z_2^r at
     r = 100..105, balanced split) — distinct dims give distinct cache
     fingerprints.  The sparse slice carries the cache's payoff: its
     per-draw cost is O(|coset| + |dual|), so the one O(|A|) prep pass
     dominates a cold request.  Dense draws pay a full-register QFT per
     draw regardless of prep, so those instances stay small. *)
  let amp i =
    if i < 4 then
      { Pr.dims = [| 64; 16 * (4 + i) |]; moduli = [| 16; 16 |]; backend = None }
    else
      { Pr.dims = [| 1 lsl (10 + (i mod 3)); 16 * (4 + i) |];
        moduli = [| 16; 16 |];
        backend = Some Quantum.Backend.Sparse }
  in
  let sym i =
    let r = 100 + i in
    { Pr.dims = Array.make r 2;
      moduli = Array.init r (fun j -> if j < r / 2 then 2 else 1);
      backend = None }
  in
  let n_amp = 12 in
  let oracles = List.init n_amp amp @ List.init 6 sym in
  let mk inst k = { Pr.id = Jv.Null; req = Pr.Sample { inst; count = 4; seed = Some k } } in
  let wl_rng = Random.State.make [| 20260809; 14 |] in
  let mixed =
    let a =
      Array.of_list
        (List.concat_map (fun inst -> List.init 6 (fun k -> mk inst k)) oracles)
    in
    (* Fisher–Yates with the fixed workload seed: the replay order is
       part of the experiment definition *)
    for i = Array.length a - 1 downto 1 do
      let j = Random.State.int wl_rng (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    a
  in
  let percentile sorted p =
    let n = Array.length sorted in
    sorted.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))
  in
  (* [replay engine nthreads reqs] drives the full client path minus
     the socket: worker threads pull from a shared cursor and block in
     [Service.submit], so concurrent same-oracle requests really do
     land in one executor batch. *)
  let replay engine nthreads reqs =
    let lat = Array.make (Array.length reqs) 0.0 in
    let okc = Atomic.make 0 in
    let next = Atomic.make 0 in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < Array.length reqs then begin
          let t0 = Unix.gettimeofday () in
          let reply = Sv.submit engine reqs.(i) in
          lat.(i) <- (Unix.gettimeofday () -. t0) *. 1000.;
          (match Option.bind (Jv.member "ok" reply) Jv.to_bool_opt with
          | Some true -> Atomic.incr okc
          | _ -> ());
          loop ()
        end
      in
      loop ()
    in
    let t0 = Unix.gettimeofday () in
    let threads = List.init nthreads (fun _ -> Thread.create worker ()) in
    List.iter Thread.join threads;
    let wall = Unix.gettimeofday () -. t0 in
    Array.sort compare lat;
    (wall, lat, Atomic.get okc)
  in
  let preps () = (Quantum.Metrics.snapshot ()).Quantum.Metrics.sampler_preps in
  let emit phase nthreads (wall, lat, okc) ~hitpct ~preps =
    let n = Array.length lat in
    row
      [ fmt_s phase; fmt_i n; fmt_i nthreads; fmt_f (float_of_int n /. wall);
        fmt_f (percentile lat 0.50); fmt_f (percentile lat 0.99); fmt_f hitpct;
        fmt_i preps; fmt_s (string_of_bool (okc = n)) ]
  in
  let hit_pct (before : Hsp_service.Cache.stats) (after : Hsp_service.Cache.stats) =
    let h = after.Hsp_service.Cache.hits - before.Hsp_service.Cache.hits
    and m = after.Hsp_service.Cache.misses - before.Hsp_service.Cache.misses in
    if h + m = 0 then 0.0 else 100.0 *. float_of_int h /. float_of_int (h + m)
  in
  Quantum.Metrics.reset ();
  let engine = Sv.create ~seed:2026 () in
  Sv.start engine;
  let preps0 = preps () in
  let s0 = Sv.cache_stats engine in
  let cold = replay engine 8 mixed in
  let s1 = Sv.cache_stats engine in
  let preps1 = preps () - preps0 in
  emit "mixed-cold" 8 cold ~hitpct:(hit_pct s0 s1) ~preps:preps1;
  let warm = replay engine 8 mixed in
  let s2 = Sv.cache_stats engine in
  let preps2 = preps () - preps0 in
  emit "mixed-warm" 8 warm ~hitpct:(hit_pct s1 s2) ~preps:(preps2 - preps1);
  Sv.stop engine;
  if preps2 <> n_amp then begin
    incr claim_violations;
    Printf.printf
      "claim violation: E14 sampler_preps = %d after warm replay, want %d (one per distinct amplitude oracle)\n"
      preps2 n_amp
  end;
  (* Repeated-oracle slice.  Same engine machinery both sides; one
     thread, so no batch ever hides a prep.  Thrashing a 1-entry cache
     between two same-shaped oracles is the uncached path: every
     request rebuilds its O(|A|) buckets. *)
  let rep =
    { Pr.dims = [| 8192; 128 |]; moduli = [| 64; 16 |];
      backend = Some Quantum.Backend.Sparse }
  in
  let alt =
    { Pr.dims = [| 128; 8192 |]; moduli = [| 16; 64 |];
      backend = Some Quantum.Backend.Sparse }
  in
  let n_rep = 24 in
  let rep_reqs =
    Array.init n_rep (fun k ->
        { Pr.id = Jv.Null; req = Pr.Sample { inst = rep; count = 1; seed = Some k } })
  in
  let thrash_reqs =
    Array.init n_rep (fun k ->
        { Pr.id = Jv.Null;
          req = Pr.Sample { inst = (if k mod 2 = 0 then rep else alt); count = 1; seed = Some k } })
  in
  let cold_engine = Sv.create ~cache_entries:1 ~seed:2026 () in
  Sv.start cold_engine;
  let c0 = Sv.cache_stats cold_engine in
  let pc0 = preps () in
  let ((cold_wall, _, _) as coldr) = replay cold_engine 1 thrash_reqs in
  let c1 = Sv.cache_stats cold_engine in
  emit "rep-cold" 1 coldr ~hitpct:(hit_pct c0 c1) ~preps:(preps () - pc0);
  Sv.stop cold_engine;
  let warm_engine = Sv.create ~seed:2026 () in
  Sv.start warm_engine;
  (* prime the cache with one untimed request, then replay *)
  ignore
    (Sv.submit warm_engine
       { Pr.id = Jv.Null; req = Pr.Sample { inst = rep; count = 1; seed = Some 0 } });
  let w0 = Sv.cache_stats warm_engine in
  let pw0 = preps () in
  let ((warm_wall, _, _) as warmr) = replay warm_engine 1 rep_reqs in
  let w1 = Sv.cache_stats warm_engine in
  emit "rep-warm" 1 warmr ~hitpct:(hit_pct w0 w1) ~preps:(preps () - pw0);
  Sv.stop warm_engine;
  let speedup = cold_wall /. warm_wall in
  row
    [ fmt_s "speedup"; fmt_i n_rep; fmt_i 1; fmt_s (Printf.sprintf "%.1fx" speedup);
      fmt_s "-"; fmt_s "-"; fmt_s "-"; fmt_s "-"; fmt_s (string_of_bool (speedup >= 5.0)) ];
  if speedup < 5.0 then begin
    incr claim_violations;
    Printf.printf
      "claim violation: E14 warm/cold throughput ratio %.2fx < 5x on the repeated-oracle workload\n"
      speedup
  end

(* ------------------------------------------------------------------ *)
(* E15: circuit compiler + fused kernels.  Each workload is a qubit   *)
(* circuit run on a dense register along two paths: [plan] is         *)
(* [Circuit.run] (the compiled plan), [gates] the reference fold of   *)
(* [State.apply_wires] over [Circuit.ops].  Each path runs through    *)
(* the determinism matrix (jobs x scheduler) keyed on the measured    *)
(* outcomes AND the bitwise [State.digest] of the circuit's output,   *)
(* with ledger counters compared within the path.  Across paths the   *)
(* outcome digests must agree on every row and the output amplitudes  *)
(* to 1e-9 (fused matrix products round differently); the plan's     *)
(* single-thread run must beat the reference >= 5x.  Every compiled   *)
(* plan is verified symbolically by Circuit_check.check_plan first.   *)
(* The sec column times circuit execution only; measurement (common   *)
(* to both paths) happens outside the timer but inside the digest.    *)
(* ------------------------------------------------------------------ *)

let e15 () =
  header
    "E15: circuit compiler + fused kernels — plan single-thread >= 5x the gate-by-gate reference, state digests identical across jobs / sched"
    [ fmt_s "workload"; fmt_s "gates"; fmt_s "path"; fmt_s "jobs"; fmt_s "sched";
      fmt_s "digest"; fmt_s "state"; fmt_s "ok"; fmt_s "speedup"; fmt_s "sec" ];
  (* gate_fibres / fused_* describe backend work and legitimately
     differ ACROSS paths; within one path every row must agree. *)
  let counters (m : Quantum.Metrics.snapshot) =
    [ m.plans_compiled; m.fused_passes; m.fused_gates ]
  in
  let variants =
    [ (1, Quantum.Parallel.Fifo); (2, Quantum.Parallel.Fifo); (4, Quantum.Parallel.Fifo);
      (4, Quantum.Parallel.Shuffle) ]
  in
  let gate_by_gate c st =
    List.fold_left
      (fun st (Quantum.Circuit.Gate (m, wires)) -> Quantum.State.apply_wires st ~wires m)
      st (Quantum.Circuit.ops c)
  in
  let run_workload name c measures =
    let plan = Quantum.Circuit.compile c in
    (match Analysis.Circuit_check.check_plan c plan with
    | Ok () -> ()
    | Error vs ->
        incr claim_violations;
        Printf.printf "claim violation: E15 %s plan fails symbolic verification: %s\n" name
          (String.concat "; "
             (List.map
                (fun v -> Format.asprintf "%a" Analysis.Circuit_check.pp_plan_violation v)
                vs)));
    Printf.printf "%s plan: %d gates -> %d steps, %d bytes\n" name
      (Quantum.Circuit_plan.gate_count plan)
      (Quantum.Circuit_plan.step_count plan)
      (Quantum.Circuit_plan.bytes plan);
    let n = Quantum.Circuit.num_qubits c in
    let x0 = Array.init n (fun i -> i land 1) in
    (* Returns the matrix rows and the baseline (jobs=1) output state,
       kept for the cross-path amplitude check. *)
    let run_path path exec =
      let baseline = ref None in
      let rows =
        determinism_matrix ~label:(Printf.sprintf "E15 %s path=%s" name path) ~seed:0xe15
          ~counters variants (fun rng ->
            let st0 =
              Quantum.State.of_basis ~backend:Quantum.Backend.Dense (Array.make n 2) x0
            in
            let st, sec = time_it (fun () -> exec c st0) in
            if Option.is_none !baseline then baseline := Some st;
            let state = Quantum.State.digest st in
            let buf = Buffer.create 256 in
            ignore
              (List.fold_left
                 (fun st wires ->
                   let outcome, post = Quantum.State.measure rng st ~wires in
                   add_outcome buf outcome;
                   post)
                 st measures);
            let outcomes = Digest.string (Buffer.contents buf) in
            (outcomes ^ state, (outcomes, state, sec)))
      in
      (rows, Option.get !baseline)
    in
    let gate_rows, gate_out = run_path "gates" gate_by_gate in
    let plan_rows, plan_out = run_path "plan" Quantum.Circuit.run in
    let _, _, _, _, (base_outcomes, _, base_sec) = List.hd gate_rows in
    let _, _, _, _, (_, _, plan_sec) = List.hd plan_rows in
    let amps_ok = Quantum.State.approx_equal ~eps:1e-9 gate_out plan_out in
    if not amps_ok then begin
      incr claim_violations;
      Printf.printf "claim violation: E15 %s plan output differs from the gate-by-gate output beyond 1e-9\n"
        name
    end;
    List.iter
      (fun (path, rows) ->
        List.iter
          (fun (jobs, sched, _, ok, (outcomes, state, sec)) ->
            let same_outcomes = String.equal outcomes base_outcomes in
            if not same_outcomes then begin
              incr claim_violations;
              Printf.printf
                "claim violation: E15 %s path=%s jobs=%d sched=%s outcomes differ from the gate-by-gate jobs=1 run\n"
                name path jobs (sched_name sched)
            end;
            row
              [ fmt_s name; fmt_i (Quantum.Circuit.gate_count c); fmt_s path; fmt_i jobs;
                fmt_s (sched_name sched); fmt_s (short_hex outcomes);
                fmt_s (String.sub state 0 8);
                fmt_s (string_of_bool (ok && same_outcomes && amps_ok));
                fmt_f (base_sec /. Float.max 1e-9 sec); fmt_f sec ])
          rows)
      [ ("gates", gate_rows); ("plan", plan_rows) ];
    let speedup = base_sec /. Float.max 1e-9 plan_sec in
    row
      [ fmt_s name; fmt_i (Quantum.Circuit.gate_count c); fmt_s "vs-gates"; fmt_i 1;
        fmt_s "fifo"; fmt_s "-"; fmt_s "-"; fmt_s (string_of_bool (speedup >= 5.0));
        fmt_f speedup; fmt_f plan_sec ];
    if speedup < 5.0 then begin
      incr claim_violations;
      Printf.printf
        "claim violation: E15 %s plan single-thread speedup %.2fx < 5x over the gate-by-gate reference\n"
        name speedup
    end
  in
  (* the E11 kernels workload as a circuit: 4^10 = 2^20 amplitudes,
     one dft4 per quaternary wire, i.e. a dense 2-qubit gate per pair *)
  let dft4_circuit =
    let c = ref (Quantum.Circuit.empty 20) in
    for i = 0 to 9 do
      c := Quantum.Circuit.gate !c (Linalg.Cmat.dft 4) [ 2 * i; (2 * i) + 1 ]
    done;
    !c
  in
  run_workload "4^10-circ" dft4_circuit [ [ 0; 3; 7 ]; [ 1; 2 ]; [ 4; 5; 6 ] ];
  (* the QFT ladder: where Diag / Perm fusion (not just the 2q kernel)
     carries the speedup *)
  run_workload "qft-16" (Quantum.Circuit.qft 16) [ [ 0; 3; 7 ]; [ 1; 2 ]; [ 4; 5; 6 ] ]

(* ------------------------------------------------------------------ *)
(* Smoke: one small instance per theorem — the CI gate.  Fast, runs   *)
(* through Runner so each row carries the ok verdict and the ledger;  *)
(* CI fails the build if any ok cell is false.                        *)
(* ------------------------------------------------------------------ *)

let smoke () =
  header "Smoke: one small instance per theorem (CI gate)"
    [ fmt_s "instance"; fmt_s "algo"; fmt_s "thm"; fmt_s "jobs"; fmt_s "ok";
      fmt_s "queries"; fmt_s "gates"; fmt_s "claim"; fmt_s "sec" ];
  (* The claim gate counts every oracle evaluation — classical plus
     quantum — since the theorems bound total query complexity and our
     Theorem-8/11 routes schedule some of the paper's quantum queries
     as classical evaluations on the quotient. *)
  let emit thm params (r : Runner.report) =
    let queries = r.Runner.classical_queries + r.Runner.quantum_queries in
    row
      [ fmt_s r.Runner.instance; fmt_s r.Runner.algorithm; fmt_s thm;
        fmt_i (Quantum.Parallel.jobs ()); fmt_s (string_of_bool r.Runner.ok); fmt_i queries;
        fmt_i
          (r.Runner.metrics.Quantum.Metrics.gate_apps
          + r.Runner.metrics.Quantum.Metrics.dft_apps);
        fmt_s (claim_cell thm ~params ~queries r.Runner.metrics); fmt_f r.Runner.seconds ]
  in
  let p = Analysis.Cost_check.params in
  emit "3"
    (p ~group_order:16 ())
    (Runner.run ~algorithm:"abelian"
       (Instances.simon ~n:4 ~mask:[| 1; 0; 1; 1 |])
       ~solver:(fun i -> Abelian_hsp.solve rng i.Instances.group i.Instances.hiding));
  emit "8"
    (p ~group_order:24 ~quotient_order:4 ())
    (Runner.run ~algorithm:"normal"
       (Instances.dihedral_rotation ~n:12 ~d:2)
       ~solver:(fun i ->
         (Normal_hsp.solve rng i.Instances.group i.Instances.hiding).Normal_hsp.generators));
  emit "11"
    (p ~group_order:27 ~commutator_order:3 ())
    (Runner.run ~algorithm:"commutator"
       (Instances.heisenberg_random rng ~p:3 ~m:1)
       ~solver:(fun i -> Small_commutator.solve_gens rng i.Instances.group i.Instances.hiding));
  emit "13g"
    (p ~group_order:32 ~quotient_order:2 ())
    (Runner.run ~algorithm:"thm13-general"
       (Instances.wreath_random rng ~k:2)
       ~solver:(fun i ->
         (Elem_abelian2.solve_general rng i.Instances.group ~n_gens:(Wreath.base_gens 2)
            i.Instances.hiding)
           .Elem_abelian2.generators));
  emit "13c"
    (p ~group_order:32 ~quotient_order:2 ~nu:1 ())
    (Runner.run ~algorithm:"thm13-cyclic"
       (Instances.semidirect_random rng ~n:4 ~m:2)
       ~solver:(fun i ->
         (Elem_abelian2.solve_cyclic rng i.Instances.group
            ~n_gens:(Semidirect.base_gens ~n:4) i.Instances.hiding)
           .Elem_abelian2.generators));
  (* Theorems 4 and 6 have no Instances wrapper; their checks are
     closed-form. *)
  Quantum.Metrics.reset ();
  let queries = Quantum.Query.create () in
  let o, sec =
    time_it (fun () ->
        Quantum.Shor.find_order rng
          ~pow:(fun k -> Numtheory.Arith.powmod 2 k 15)
          ~order_bound:15 ~queries)
  in
  let q = Quantum.Query.count queries in
  let m = Quantum.Metrics.snapshot () in
  row
    [ fmt_s "ord(2 mod 15)"; fmt_s "shor"; fmt_s "4"; fmt_i (Quantum.Parallel.jobs ());
      fmt_s (string_of_bool (o = Some 4));
      fmt_i q; fmt_i (m.Quantum.Metrics.gate_apps + m.Quantum.Metrics.dft_apps);
      fmt_s (claim_cell "4" ~params:(p ~group_order:15 ()) ~queries:q m); fmt_f sec ];
  Quantum.Metrics.reset ();
  let z = Cyclic.product [| 12; 18 |] in
  let queries = Quantum.Query.create () in
  let res, sec =
    time_it (fun () ->
        Membership.express rng z ~hs:[ [| 2; 3 |]; [| 0; 6 |] ] [| 4; 0 |] ~order_bound:36
          ~queries)
  in
  let q = Quantum.Query.count queries in
  let m = Quantum.Metrics.snapshot () in
  row
    [ fmt_s "Z12xZ18"; fmt_s "membership"; fmt_s "6"; fmt_i (Quantum.Parallel.jobs ());
      fmt_s (string_of_bool (res <> None));
      fmt_i q; fmt_i (m.Quantum.Metrics.gate_apps + m.Quantum.Metrics.dft_apps);
      fmt_s (claim_cell "6" ~params:(p ~group_order:36 ()) ~queries:q m); fmt_f sec ];
  (* Lint budget: both static passes (value semantics + concurrency
     safety) must be clean over lib — an unsuppressed finding is a
     claim violation like any ok=false row.  The queries column carries
     the finding count.  Skipped when the sources are not around (e.g.
     running the installed binary outside the repo). *)
  if Sys.file_exists "lib" && Sys.is_directory "lib" then begin
    let rec files path =
      if Sys.is_directory path then
        Sys.readdir path |> Array.to_list
        |> List.concat_map (fun e -> files (Filename.concat path e))
      else if Filename.check_suffix path ".ml" then [ path ]
      else []
    in
    let findings, sec =
      time_it (fun () ->
          List.fold_left
            (fun acc f ->
              acc
              + List.length (Analysis.Lint.lint_file f)
              + List.length (Analysis.Race_check.lint_file f))
            0 (files "lib"))
    in
    let ok = findings = 0 in
    if not ok then incr claim_violations;
    row
      [ fmt_s "lib/*.ml"; fmt_s "hsp_lint"; fmt_s "-"; fmt_i (Quantum.Parallel.jobs ());
        fmt_s (string_of_bool ok); fmt_i findings; fmt_s "-";
        fmt_s (if ok then "ok" else "OVER"); fmt_f sec ]
  end

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make per experiment            *)
(* ------------------------------------------------------------------ *)

let micro () =
  let open Bechamel in
  let open Toolkit in
  let simon_inst = Instances.simon ~n:6 ~mask:[| 1; 0; 1; 0; 1; 0 |] in
  let dihedral_inst = Instances.dihedral_rotation ~n:24 ~d:4 in
  let heis_inst = Instances.heisenberg_center ~p:5 ~m:1 in
  let wreath_inst = Instances.wreath_diagonal ~k:3 in
  let semi_inst = Instances.semidirect_random rng ~n:4 ~m:4 in
  let refl_inst = Instances.dihedral_reflection ~n:32 ~d:7 in
  let z = Cyclic.product [| 12; 18 |] in
  let tests =
    [
      Test.make ~name:"e1_abelian_simon" (Staged.stage (fun () ->
          ignore (Abelian_hsp.solve rng simon_inst.Instances.group simon_inst.Instances.hiding)));
      Test.make ~name:"e2_shor_order" (Staged.stage (fun () ->
          let queries = Quantum.Query.create () in
          ignore
            (Quantum.Shor.find_order rng
               ~pow:(fun k -> Numtheory.Arith.powmod 2 k 77)
               ~order_bound:77 ~queries)));
      Test.make ~name:"e3_normal_dihedral" (Staged.stage (fun () ->
          ignore (Normal_hsp.solve rng dihedral_inst.Instances.group dihedral_inst.Instances.hiding)));
      Test.make ~name:"e4_commutator_heisenberg" (Staged.stage (fun () ->
          ignore (Small_commutator.solve rng heis_inst.Instances.group heis_inst.Instances.hiding)));
      Test.make ~name:"e5_wreath_thm13" (Staged.stage (fun () ->
          ignore
            (Elem_abelian2.solve_general rng wreath_inst.Instances.group
               ~n_gens:(Wreath.base_gens 3) wreath_inst.Instances.hiding)));
      Test.make ~name:"e6_cyclic_thm13" (Staged.stage (fun () ->
          ignore
            (Elem_abelian2.solve_cyclic rng semi_inst.Instances.group
               ~n_gens:(Semidirect.base_gens ~n:4) semi_inst.Instances.hiding)));
      Test.make ~name:"e7_ettinger_hoyer" (Staged.stage (fun () ->
          ignore (Ettinger_hoyer.solve rng ~n:32 refl_inst.Instances.hiding)));
      Test.make ~name:"e8_membership" (Staged.stage (fun () ->
          let queries = Quantum.Query.create () in
          ignore
            (Membership.express rng z ~hs:[ [| 2; 3 |]; [| 0; 6 |] ] [| 4; 0 |]
               ~order_bound:36 ~queries)));
    ]
  in
  let grouped = Test.make_grouped ~name:"hsp" tests in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.8) ~kde:(Some 100) () in
  let raw = Benchmark.all cfg instances grouped in
  let ols =
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
      Instance.monotonic_clock raw
  in
  Printf.printf "\n== Bechamel micro-benchmarks (monotonic clock, ns/run) ==\n";
  let rows =
    Hashtbl.fold (fun name est acc -> (name, est) :: acc) ols []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  List.iter
    (fun (name, est) ->
      match Analyze.OLS.estimates est with
      | Some [ e ] -> Printf.printf "  %-32s %14.0f ns/run\n" name e
      | _ -> Printf.printf "  %-32s (no estimate)\n" name)
    rows

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let all = [ ("e1", e1); ("e2", e2); ("e3", e3); ("e4", e4); ("e5", e5); ("e6", e6); ("e7", e7); ("e8", e8); ("e9", e9); ("e10", e10); ("e11", e11); ("e12", e12); ("e13", e13); ("e14", e14); ("e15", e15) ] in
  Printf.printf "HSP benchmark harness — reproduces EXPERIMENTS.md (seed fixed)\n";
  (match args with
  | [] ->
      List.iter (fun (_, f) -> f ()) all;
      micro ()
  | [ "micro" ] -> micro ()
  | selected ->
      List.iter
        (fun name ->
          match List.assoc_opt name all with
          | Some f -> f ()
          | None when name = "micro" -> micro ()
          | None when name = "smoke" -> smoke ()
          | None -> Printf.printf "unknown experiment %s\n" name)
        selected);
  if !tables <> [] then write_json ();
  if !claim_violations > 0 then begin
    Printf.printf "FAILED: %d cost-claim violation(s) — see Analysis.Cost_check\n"
      !claim_violations;
    exit 1
  end
