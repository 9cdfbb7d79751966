(* Command-line interface to the HSP solvers.

     hsp solve-simon --n 8 --mask 10110010
     hsp solve-abelian --dims 8192,8192 --moduli 64,128 --backend sparse
     hsp solve-abelian --dims 2^200 --moduli 2^100,1^100 --backend symbolic
     hsp solve-dihedral --n 24 --d 4
     hsp solve-heisenberg --p 5
     hsp solve-wreath --k 3
     hsp solve-semidirect --n 4 --m 4
     hsp factor 221
     hsp dlog --p 101 --g 2 --h 55
     hsp order --modulus 77 --base 2

   Every command prints the answer, the oracle-query accounting, and a
   correctness check against the planted ground truth.  A global
   [--backend dense|sparse|symbolic|auto] flag selects the state
   simulation backend (default: the HSP_BACKEND environment variable,
   then auto); [--jobs N] sets the dense backend's worker-domain count
   (default: HSP_JOBS, then 1 — results are identical at any value). *)

open Groups
open Hsp
open Cmdliner

let rng_of_seed seed = Random.State.make [| seed |]

let seed_arg =
  let doc = "PRNG seed (all algorithms are Las Vegas; the answer is always verified)." in
  Arg.(value & opt int 2026 & info [ "seed" ] ~doc)

let backend_arg =
  let backend_conv =
    Arg.conv
      ( (fun s ->
          match Quantum.Backend.choice_of_string s with
          | Some c -> Ok c
          | None ->
              Error
                (`Msg
                  (Printf.sprintf "unknown backend %S (expected dense, sparse, symbolic or auto)" s))),
        fun fmt c -> Format.pp_print_string fmt (Quantum.Backend.choice_to_string c) )
  in
  let doc =
    "State simulation backend: $(b,dense) (exact amplitude array, capped at 2^24 amplitudes),      $(b,sparse) (sorted segment of nonzero amplitudes, scales to 2^26 coset sampling and      beyond), $(b,symbolic) (amplitude-free coset-state algebra: exact sampling at      cryptographic group sizes such as Z_2^200, for the commands that accept subgroup      structure) or $(b,auto) (dense when the register fits, sparse beyond; never symbolic).      Defaults to the $(b,HSP_BACKEND) environment variable, then $(b,auto)."
  in
  Arg.(value & opt (some backend_conv) None & info [ "backend" ] ~doc)

let set_backend = function None -> () | Some c -> Quantum.Backend.set_default c

(* Options shared by every subcommand: backend selection, the parallel
   job count, plus the two observability switches. *)
type common = {
  backend : Quantum.Backend.choice option;
  jobs : int option;
  trace : bool;
  metrics : bool;
}

let jobs_arg =
  let doc =
    "Worker domains for the dense backend's parallel kernels (1..64).  Results are      bit-for-bit identical at every job count; the default is the $(b,HSP_JOBS)      environment variable, then 1 (serial)."
  in
  let jobs_conv =
    let parse s =
      match int_of_string_opt s with
      | Some n when n >= 1 && n <= Quantum.Parallel.max_jobs -> Ok n
      | _ ->
          Error
            (`Msg
              (Printf.sprintf "expected a job count in 1..%d, got %s"
                 Quantum.Parallel.max_jobs s))
    in
    Arg.conv (parse, Format.pp_print_int)
  in
  Arg.(value & opt (some jobs_conv) None & info [ "jobs"; "j" ] ~doc ~docv:"N")

let trace_arg =
  let doc =
    "Emit structured cost-ledger trace events (phase completions, per-round sampler      events) through the $(b,hsp.trace) log source while the algorithm runs."
  in
  Arg.(value & flag & info [ "trace" ] ~doc)

let metrics_arg =
  let doc =
    "Print the simulator cost ledger after the run: gate and DFT applications, fibre      counts, basis-map/oracle ops, peak sparse support, pruned amplitudes, peak dense      allocation, and per-phase wall-clock seconds."
  in
  Arg.(value & flag & info [ "metrics" ] ~doc)

let common_arg =
  let make backend jobs trace metrics = { backend; jobs; trace; metrics } in
  Term.(const make $ backend_arg $ jobs_arg $ trace_arg $ metrics_arg)

let setup common =
  set_backend common.backend;
  (match common.jobs with None -> () | Some j -> Quantum.Parallel.set_jobs j);
  Quantum.Metrics.reset ();
  if common.trace then begin
    Logs.set_reporter (Logs_fmt.reporter ());
    Log.install_trace ()
  end

(* Invalid_argument out of the solvers is user-facing misconfiguration
   (bad HSP_BACKEND value, a register the chosen backend cannot hold,
   invalid instance parameters), not an internal error — report it as
   such instead of letting cmdliner print an uncaught-exception box. *)
let guard f =
  try f ()
  with Invalid_argument msg ->
    Printf.eprintf "hsp: %s\n" msg;
    2

(* Run the command body under [guard], then print the accumulated
   ledger if --metrics was given (even after a failed run: partial
   costs are still informative). *)
let finish common f =
  let code = guard f in
  if common.metrics then
    Format.printf "%a@." Quantum.Metrics.pp (Quantum.Metrics.snapshot ());
  code

let report inst gens =
  let ok = Group.subgroup_equal inst.Instances.group gens inst.Instances.hidden_gens in
  let c, q = Hiding.total_queries inst.Instances.hiding in
  Printf.printf "group order     : %d\n" (Group.order inst.Instances.group);
  Printf.printf "subgroup order  : %d\n"
    (List.length (Group.closure inst.Instances.group inst.Instances.hidden_gens));
  Printf.printf "quantum queries : %d\n" q;
  Printf.printf "classical queries: %d\n" c;
  Printf.printf "correct         : %b\n" ok;
  if ok then 0 else 1

let simon_cmd =
  let n_arg =
    Arg.(value & opt int 6 & info [ "n" ] ~doc:"Number of bits (group is Z_2^n).")
  in
  let mask_arg =
    Arg.(value & opt string "101010" & info [ "mask" ] ~doc:"Secret bit mask, e.g. 10110.")
  in
  let run common seed n mask =
    setup common;
    finish common @@ fun () ->
    let rng = rng_of_seed seed in
    let mask_bits =
      Array.init (String.length mask) (fun i -> Char.code mask.[i] - Char.code '0')
    in
    let n = if String.length mask = n then n else String.length mask in
    Printf.printf "Simon's problem on Z_2^%d, mask %s\n" n mask;
    let inst = Instances.simon ~n ~mask:mask_bits in
    let gens = Abelian_hsp.solve rng inst.Instances.group inst.Instances.hiding in
    List.iter
      (fun g ->
        Printf.printf "generator: %s\n"
          (String.concat "" (List.map string_of_int (Array.to_list g))))
      gens;
    report inst gens
  in
  Cmd.v
    (Cmd.info "solve-simon" ~doc:"Solve Simon's problem (Abelian HSP on Z_2^n).")
    Term.(const run $ common_arg $ seed_arg $ n_arg $ mask_arg)

let dihedral_cmd =
  let n_arg = Arg.(value & opt int 24 & info [ "n" ] ~doc:"D_n: the n-gon.") in
  let d_arg =
    Arg.(value & opt int 4 & info [ "d" ] ~doc:"Hidden normal rotation subgroup <s^d>; d | n.")
  in
  let run common seed n d =
    setup common;
    finish common @@ fun () ->
    let rng = rng_of_seed seed in
    Printf.printf "Hidden normal subgroup <s^%d> of D_%d (Theorem 8)\n" d n;
    let inst = Instances.dihedral_rotation ~n ~d in
    let res = Normal_hsp.solve rng inst.Instances.group inst.Instances.hiding in
    Printf.printf "factor group order: %d\n" res.Normal_hsp.quotient_order;
    report inst res.Normal_hsp.generators
  in
  Cmd.v
    (Cmd.info "solve-dihedral" ~doc:"Find a hidden normal rotation subgroup of D_n (Theorem 8).")
    Term.(const run $ common_arg $ seed_arg $ n_arg $ d_arg)

let heisenberg_cmd =
  let p_arg = Arg.(value & opt int 3 & info [ "p" ] ~doc:"Prime p; the group is H_p, order p^3.") in
  let run common seed p =
    setup common;
    finish common @@ fun () ->
    let rng = rng_of_seed seed in
    Printf.printf "HSP in the extra-special group H_%d (Theorem 11 / Corollary 12)\n" p;
    let inst = Instances.heisenberg_random rng ~p ~m:1 in
    let res = Small_commutator.solve rng inst.Instances.group inst.Instances.hiding in
    Printf.printf "|G'| = %d\n" res.Small_commutator.commutator_order;
    report inst res.Small_commutator.generators
  in
  Cmd.v
    (Cmd.info "solve-heisenberg" ~doc:"Solve a random HSP instance in an extra-special p-group.")
    Term.(const run $ common_arg $ seed_arg $ p_arg)

let wreath_cmd =
  let k_arg = Arg.(value & opt int 3 & info [ "k" ] ~doc:"The group is Z_2^k wr Z_2.") in
  let run common seed k =
    setup common;
    finish common @@ fun () ->
    let rng = rng_of_seed seed in
    Printf.printf "HSP in Z_2^%d wr Z_2 (Theorem 13, general case)\n" k;
    let inst = Instances.wreath_random rng ~k in
    let res =
      Elem_abelian2.solve_general rng inst.Instances.group ~n_gens:(Wreath.base_gens k)
        inst.Instances.hiding
    in
    Printf.printf "transversal size: %d\n" res.Elem_abelian2.transversal_size;
    report inst res.Elem_abelian2.generators
  in
  Cmd.v
    (Cmd.info "solve-wreath" ~doc:"Solve a random HSP instance in a wreath product (Theorem 13).")
    Term.(const run $ common_arg $ seed_arg $ k_arg)

let semidirect_cmd =
  let n_arg = Arg.(value & opt int 4 & info [ "n" ] ~doc:"Base Z_2^n.") in
  let m_arg = Arg.(value & opt int 4 & info [ "m" ] ~doc:"Cyclic top Z_m; m | n.") in
  let run common seed n m =
    setup common;
    finish common @@ fun () ->
    let rng = rng_of_seed seed in
    Printf.printf "HSP in Z_2^%d x| Z_%d (Theorem 13, cyclic factor)\n" n m;
    let inst = Instances.semidirect_random rng ~n ~m in
    let res =
      Elem_abelian2.solve_cyclic rng inst.Instances.group ~n_gens:(Semidirect.base_gens ~n)
        inst.Instances.hiding
    in
    Printf.printf "transversal size: %d (|G/N| = %d)\n" res.Elem_abelian2.transversal_size
      res.Elem_abelian2.quotient_order;
    report inst res.Elem_abelian2.generators
  in
  Cmd.v
    (Cmd.info "solve-semidirect"
       ~doc:"Solve a random HSP instance in Z_2^n x| Z_m (Theorem 13, polynomial case).")
    Term.(const run $ common_arg $ seed_arg $ n_arg $ m_arg)

let abelian_cmd =
  let dims_arg =
    Arg.(
      value
      & opt string "8192,8192"
      & info [ "dims" ]
          ~doc:
            "Comma-separated cyclic factors: the group is Z_d1 x ... x Z_dr.  A factor \
             written $(b,b^k) expands to k copies of b, so --dims 2^200 is Z_2^200.")
  in
  let moduli_arg =
    Arg.(
      value
      & opt string "64,128"
      & info [ "moduli" ]
          ~doc:
            "Comma-separated m_i with m_i | d_i; the hidden subgroup is \
             H = m_1 Z_d1 x ... x m_r Z_dr and the oracle is f(x) = (x_i mod m_i).  \
             The $(b,b^k) repeat syntax of --dims works here too.")
  in
  let parse_ints label s =
    try
      let parts = String.split_on_char ',' s in
      if parts = [] then invalid_arg label;
      (* "b^k" expands to k copies of b, so cryptographic shapes like
         2^200 stay readable on the command line. *)
      let expand t =
        let t = String.trim t in
        match String.index_opt t '^' with
        | None -> [ int_of_string t ]
        | Some i ->
            let b = int_of_string (String.sub t 0 i) in
            let k = int_of_string (String.sub t (i + 1) (String.length t - i - 1)) in
            if k < 0 || k > 100_000 then failwith "repeat count out of range";
            List.init k (fun _ -> b)
      in
      Array.of_list (List.concat_map expand parts)
    with _ ->
      invalid_arg
        (Printf.sprintf
           "%s: expected comma-separated integers (b^k repeats b k times), got %S" label s)
  in
  let run common seed dims_s moduli_s =
    setup common;
    finish common @@ fun () ->
    let rng = rng_of_seed seed in
    let dims = parse_ints "--dims" dims_s in
    let moduli = parse_ints "--moduli" moduli_s in
    let r = Array.length dims in
    if Array.length moduli <> r then begin
      Printf.eprintf "error: --dims and --moduli must have the same length\n";
      exit 2
    end;
    Array.iteri
      (fun i m ->
        if m < 1 || dims.(i) < 1 || dims.(i) mod m <> 0 then begin
          Printf.eprintf "error: need 1 <= m_%d and m_%d | d_%d (got m=%d, d=%d)\n" i i i m
            dims.(i);
          exit 2
        end)
      moduli;
    (* Sizes in this command routinely overflow an int (that is the
       point of the symbolic backend), so every size is reported as an
       exact integer when formable and as a power of two otherwise. *)
    let total = Quantum.Backend.total_of_opt dims in
    let log2_of a = Array.fold_left (fun acc d -> acc +. (log (float_of_int d) /. log 2.)) 0. a in
    let size_str total log2 =
      match total with
      | Some t -> string_of_int t
      | None -> Printf.sprintf "2^%.1f" log2
    in
    (* Ground truth as subgroup structure: H = <m_i e_i> in canonical
       HNF form.  This is what the symbolic sampler consumes, what the
       order reports come from, and what the recovered generators are
       checked against — at any size, no enumeration anywhere. *)
    let sub_gens =
      List.init r (fun i ->
          Array.init r (fun j -> if i = j then moduli.(i) mod dims.(i) else 0))
    in
    let truth = Quantum.Backend_symbolic.Subgroup.of_gens ~dims sub_gens in
    let h_log2 = Quantum.Backend_symbolic.Subgroup.order_log2 truth in
    let h_order = Quantum.Backend_symbolic.Subgroup.order_int truth in
    let show a = String.concat "," (List.map string_of_int (Array.to_list a)) in
    Printf.printf "Abelian HSP on Z_{%s}, |G| = %s%s\n" dims_s (size_str total (log2_of dims))
      (match total with
      | None -> " (beyond integer range; symbolic backend only)"
      | Some t when t > Quantum.State.max_total_dim -> " (beyond the dense 2^24 cap)"
      | Some _ -> "");
    Printf.printf "hidden H = prod m_i Z_{d_i}, moduli (%s), |H| = %s\n" moduli_s
      (size_str h_order h_log2);
    Printf.printf "backend         : %s\n"
      (Quantum.Backend.choice_to_string (Quantum.Backend.default ()));
    let symbolic =
      match Quantum.Backend.default () with Quantum.Backend.Symbolic -> true | _ -> false
    in
    let queries = Quantum.Query.create () in
    let draw =
      if symbolic then
        (* Generator-level oracle: one round is O(r^2) however large
           the group — this is what runs Z_2^200 in milliseconds. *)
        Quantum.Coset_state.sampler_with_subgroup ~backend:Quantum.Backend.Symbolic ~dims
          ~subgroup:sub_gens ~queries ()
      else begin
        (* Amplitude-level differential path: the planted instance
           knows H, so it hands the simulator the coset of a point
           directly; cost per round is O(|H|) instead of the O(|G|)
           oracle expansion (still one quantum query). *)
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
        Quantum.Coset_state.sampler_with_support ~dims ~coset ~queries ()
      end
    in
    let in_h x = Array.for_all2 (fun xi m -> xi mod m = 0) x moduli in
    let f x = Quantum.Backend.encode moduli (Array.map2 (fun xi m -> xi mod m) x moduli) in
    let t0 = Unix.gettimeofday () in
    let gens, outcome =
      Abelian_hsp.solve_dims rng ~draw ~dims ~f ~quantum:queries ~verify:in_h ()
    in
    let seconds = Unix.gettimeofday () -. t0 in
    let n_gens = List.length gens in
    List.iteri
      (fun i g ->
        if i < 8 then Printf.printf "generator: (%s)\n" (show g)
        else if i = 8 then Printf.printf "... (%d more generators)\n" (n_gens - 8))
      gens;
    (* Ground truth is known in closed form: the recovered generators
       must lie in H (checked by [verify] already) and generate all of
       it.  Canonical-HNF equality decides "generates exactly H" in
       O(r^2) at any size — no closure enumeration, so the check also
       runs (and is exact) at Z_2^200. *)
    let ok =
      List.for_all in_h gens
      && Quantum.Backend_symbolic.Subgroup.equal
           (Quantum.Backend_symbolic.Subgroup.of_gens ~dims gens)
           truth
    in
    Printf.printf "rounds          : %d\n" outcome.Abelian_hsp.rounds;
    Printf.printf "quantum queries : %d\n" (Quantum.Query.count queries);
    Printf.printf "seconds         : %.3f\n" seconds;
    Printf.printf "correct         : %b\n" ok;
    if ok then 0 else 1
  in
  Cmd.v
    (Cmd.info "solve-abelian"
       ~doc:
         "Solve a planted Abelian HSP on Z_d1 x ... x Z_dr with hidden subgroup \
          prod m_i Z_di.  With --backend sparse (or auto), group sizes far beyond the \
          dense 2^24 amplitude cap are simulable, because coset states and their Fourier \
          transforms have support |H| and |G|/|H| restricted to a small product grid.  \
          With --backend symbolic the simulation is amplitude-free (closed-form coset \
          algebra) and cryptographic sizes such as --dims 2^200 run in milliseconds per \
          sample, exactly.")
    Term.(const run $ common_arg $ seed_arg $ dims_arg $ moduli_arg)

let dicyclic_cmd =
  let n_arg = Arg.(value & opt int 4 & info [ "n" ] ~doc:"The group is Q_4n.") in
  let run common seed n =
    setup common;
    finish common @@ fun () ->
    let rng = rng_of_seed seed in
    Printf.printf "HSP in the dicyclic group Q_%d (Theorem 11; |G'| = %d)\n" (4 * n) n;
    let inst = Instances.dicyclic_random rng ~n in
    let res = Small_commutator.solve rng inst.Instances.group inst.Instances.hiding in
    report inst res.Small_commutator.generators
  in
  Cmd.v
    (Cmd.info "solve-dicyclic" ~doc:"Solve a random HSP instance in a dicyclic group (Theorem 11).")
    Term.(const run $ common_arg $ seed_arg $ n_arg)

let frobenius_cmd =
  let p_arg = Arg.(value & opt int 7 & info [ "p" ] ~doc:"Prime base Z_p.") in
  let q_arg = Arg.(value & opt int 3 & info [ "q" ] ~doc:"Prime top Z_q; q | p-1.") in
  let run common seed p q =
    setup common;
    finish common @@ fun () ->
    let rng = rng_of_seed seed in
    Printf.printf "Hidden translation subgroup of the Frobenius group Z_%d x| Z_%d (Theorem 8)\n"
      p q;
    let inst = Instances.frobenius_translations ~p ~q in
    let res = Normal_hsp.solve rng inst.Instances.group inst.Instances.hiding in
    Printf.printf "factor group order: %d\n" res.Normal_hsp.quotient_order;
    report inst res.Normal_hsp.generators
  in
  Cmd.v
    (Cmd.info "solve-frobenius"
       ~doc:"Find the hidden normal translation subgroup of a Frobenius group (Theorem 8).")
    Term.(const run $ common_arg $ seed_arg $ p_arg $ q_arg)

let factor_cmd =
  let n_arg = Arg.(required & pos 0 (some int) None & info [] ~docv:"N") in
  let run common seed n =
    setup common;
    finish common @@ fun () ->
    let rng = rng_of_seed seed in
    match Quantum.Shor.factor rng n with
    | Some (a, b) ->
        Printf.printf "%d = %d * %d\n" n a b;
        0
    | None ->
        Printf.printf "attempts exhausted\n";
        1
    | exception Invalid_argument msg ->
        Printf.printf "error: %s\n" msg;
        2
  in
  Cmd.v
    (Cmd.info "factor" ~doc:"Factor an integer with simulated Shor order finding.")
    Term.(const run $ common_arg $ seed_arg $ n_arg)

let dlog_cmd =
  let p_arg = Arg.(value & opt int 101 & info [ "p" ] ~doc:"Prime modulus.") in
  let g_arg = Arg.(value & opt int 2 & info [ "g" ] ~doc:"Base.") in
  let h_arg = Arg.(value & opt int 55 & info [ "target" ] ~doc:"Target element h.") in
  let run common seed p g h =
    setup common;
    finish common @@ fun () ->
    let rng = rng_of_seed seed in
    match Dlog.discrete_log rng ~p ~g ~h with
    | Some l ->
        Printf.printf "log_%d(%d) mod %d = %d\n" g h p l;
        0
    | None ->
        Printf.printf "%d is not in <%d> mod %d\n" h g p;
        1
  in
  Cmd.v
    (Cmd.info "dlog" ~doc:"Discrete logarithm in Z_p^* via Abelian Fourier sampling.")
    Term.(const run $ common_arg $ seed_arg $ p_arg $ g_arg $ h_arg)

let check_circuit_cmd =
  let n_arg =
    Arg.(value & opt int 6 & info [ "n" ] ~doc:"Number of qubits of the QFT circuit to check.")
  in
  let approx_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "approx" ] ~docv:"T"
          ~doc:
            "Check the approximate QFT instead: controlled rotations $(b,rk k) with \
             k > $(docv) are dropped (Coppersmith's construction).")
  in
  let run common n approx =
    setup common;
    finish common @@ fun () ->
    (match approx with
    | None -> Printf.printf "Static check: exact QFT on %d qubits\n" n
    | Some t -> Printf.printf "Static check: approximate QFT on %d qubits (threshold %d)\n" n t);
    if n < 1 then begin
      Printf.eprintf "hsp: --n must be >= 1\n";
      2
    end
    else
      match Analysis.Circuit_check.check_qft ?approx_threshold:approx n with
      | Ok r ->
          Format.printf "%a@." Analysis.Circuit_check.pp_report r;
          let budget =
            match approx with
            | None -> Analysis.Circuit_check.qft_exact_gate_count n
            | Some t -> Analysis.Circuit_check.qft_approx_gate_count ~threshold:t n
          in
          Printf.printf "closed-form gate budget: %d\n" budget;
          (* the plan Circuit.run executes on a dense register,
             cross-checked symbolically against the gate sequence *)
          let c = Quantum.Circuit.qft ?approx_threshold:approx n in
          let plan = Quantum.Circuit.compile c in
          Printf.printf "fused plan     : %d gates -> %d steps, %d bytes\n"
            (Quantum.Circuit_plan.gate_count plan)
            (Quantum.Circuit_plan.step_count plan)
            (Quantum.Circuit_plan.bytes plan);
          List.iter
            (fun (k, v) -> Printf.printf "  %-12s %s\n" k v)
            (Quantum.Circuit_plan.stats plan);
          (match Analysis.Circuit_check.check_plan c plan with
          | Ok () ->
              Printf.printf "plan verdict   : plan == circuit (symbolic)\n";
              Printf.printf "verdict        : well-formed\n";
              0
          | Error vs ->
              List.iter
                (fun v -> Format.printf "%a@." Analysis.Circuit_check.pp_plan_violation v)
                vs;
              Printf.printf "verdict        : %d plan violation(s)\n" (List.length vs);
              1)
      | Error vs ->
          List.iter (fun v -> Format.printf "%a@." Analysis.Circuit_check.pp_violation v) vs;
          Printf.printf "verdict        : %d violation(s)\n" (List.length vs);
          1
  in
  Cmd.v
    (Cmd.info "check-circuit"
       ~doc:
         "Statically validate the QFT circuit builder: wire ranges, per-gate unitarity, \
          gate/rotation counts against the closed-form Coppersmith budgets, and the \
          fused execution plan against the gate sequence \
          (Analysis.Circuit_check.check_plan).  No simulation is performed.")
    Term.(const run $ common_arg $ n_arg $ approx_arg)

let order_cmd =
  let modulus_arg = Arg.(value & opt int 77 & info [ "modulus" ] ~doc:"Modulus N.") in
  let base_arg = Arg.(value & opt int 2 & info [ "base" ] ~doc:"Element of Z_N^*.") in
  let run common seed modulus base =
    setup common;
    finish common @@ fun () ->
    let rng = rng_of_seed seed in
    let queries = Quantum.Query.create () in
    match
      Quantum.Shor.find_order rng
        ~pow:(fun k -> Numtheory.Arith.powmod base k modulus)
        ~order_bound:modulus ~queries
    with
    | Some o ->
        Printf.printf "ord(%d mod %d) = %d  (%d quantum queries)\n" base modulus o
          (Quantum.Query.count queries);
        0
    | None ->
        Printf.printf "did not converge\n";
        1
  in
  Cmd.v
    (Cmd.info "order" ~doc:"Multiplicative order via simulated Shor period finding.")
    Term.(const run $ common_arg $ seed_arg $ modulus_arg $ base_arg)

let () =
  (* HSP_DEBUG=1 turns on solver-internal debug logging *)
  if Sys.getenv_opt "HSP_DEBUG" <> None then begin
    Logs.set_reporter (Logs_fmt.reporter ());
    Logs.Src.set_level Hsp.Log.src (Some Logs.Debug)
  end;
  let doc = "Quantum algorithms for non-Abelian hidden subgroup problems (simulated)." in
  let info = Cmd.info "hsp" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            simon_cmd; abelian_cmd; dihedral_cmd; heisenberg_cmd; wreath_cmd; semidirect_cmd;
            dicyclic_cmd; frobenius_cmd; factor_cmd; dlog_cmd; order_cmd; check_circuit_cmd;
          ]))
