(* Kernel probes: the benchmark's own timed calls into public library
   functions on fixed, seed-derived inputs.  Each probe repeats its
   call until a small time budget is spent and reports the median
   per-call cost, normalised per amplitude / element / draw.  They run
   in every traced run, so a kernel's cost is visible whichever
   workload is being traced. *)

open Quantum

let budget = 0.15

(* Median seconds per call of [f], over at least 3 calls. *)
let per_call ~spans name f =
  let samples = ref [] in
  let start = Unix.gettimeofday () in
  while List.length !samples < 3 || Unix.gettimeofday () -. start < budget do
    let t0 = Unix.gettimeofday () in
    Spans.wrap spans ("probe." ^ name) f;
    samples := (Unix.gettimeofday () -. t0) :: !samples
  done;
  Stats.median !samples

let total dims = Array.fold_left ( * ) 1 dims

(* ns per amplitude of one single-wire DFT, averaged over the wires. *)
let dense_dft ~spans name dims =
  let st = State.uniform ~backend:Backend.Dense dims in
  let wires = Array.length dims in
  let sec =
    per_call ~spans name (fun () ->
        for w = 0 to wires - 1 do
          ignore (State.apply_dft st ~wire:w ~inverse:false)
        done)
  in
  sec *. 1e9 /. float_of_int (total dims * wires)

let dense_measure ~spans rng dims =
  let st = State.uniform ~backend:Backend.Dense dims in
  let wires = List.init (Array.length dims) Fun.id in
  let sec = per_call ~spans "dense.measure" (fun () -> ignore (State.measure rng st ~wires)) in
  sec *. 1e9 /. float_of_int (total dims)

(* A coset of [H = prod m_i Z_{d_i}] as sorted encoded indices. *)
let coset_indices rng (inst : Planted.t) =
  let dims = inst.Planted.dims and m = inst.Planted.moduli in
  let rep = Array.map (fun mi -> Random.State.int rng mi) m in
  let idx = ref [] in
  let rec go i acc =
    if i = Array.length dims then idx := Backend.encode dims (Array.of_list (List.rev acc)) :: !idx
    else
      for k = 0 to (dims.(i) / m.(i)) - 1 do
        go (i + 1) (rep.(i) + (k * m.(i)) :: acc)
      done
  in
  go 0 [];
  let a = Array.of_list !idx in
  Array.sort Int.compare a;
  a

(* ns per transformed fibre amplitude (populated fibres, from the
   ledger, times the wire's dimension) of a full DFT sweep over a
   sparse coset state. *)
let sparse_dft ~spans rng name (inst : Planted.t) =
  let idx = coset_indices rng inst in
  let dims = inst.Planted.dims in
  let st = State.of_indices ~backend:Backend.Sparse dims idx in
  let sweep () =
    List.fold_left
      (fun (s, amps) w ->
        let before = (Metrics.snapshot ()).Metrics.dft_fibres in
        let s = State.apply_dft s ~wire:w ~inverse:false in
        (s, amps + (((Metrics.snapshot ()).Metrics.dft_fibres - before) * dims.(w))))
      (st, 0)
      (List.init (Array.length dims) Fun.id)
  in
  let amps = snd (sweep ()) in
  let sec = per_call ~spans name (fun () -> ignore (sweep ())) in
  sec *. 1e9 /. float_of_int amps

let symbolic_draw ~spans rng ~r =
  let dims = Array.make r 2 in
  let subgroup = List.init (r / 2) (fun i -> Array.init r (fun j -> if j = 2 * i then 1 else 0)) in
  let draw =
    Coset_state.sampler_with_subgroup ~dims ~subgroup ~queries:(Query.create ()) ()
  in
  ignore (draw rng);
  let n = 32 in
  per_call ~spans "symbolic.draw" (fun () ->
      for _ = 1 to n do
        ignore (draw rng)
      done)
  *. 1e6 /. float_of_int n

let prep ~spans (inst : Planted.t) =
  let m = inst.Planted.moduli in
  let f x = Backend.encode m (Array.map2 (fun xi mi -> xi mod mi) x m) in
  let sec =
    per_call ~spans "coset_state.prep" (fun () ->
        Coset_state.prep_force
          (Coset_state.prep ~backend:Backend.Sparse ~dims:inst.Planted.dims ~f ()))
  in
  sec *. 1e9 /. float_of_int (Planted.size inst)

let decompose ~spans dims =
  let g = Groups.Cyclic.product dims in
  1e3 *. per_call ~spans "abelian.decompose" (fun () -> ignore (Groups.Abelian.decompose g))

(* (name, value, unit) for every probe metric. *)
let run ~spans ~seed =
  let rng = Random.State.make [| 0x70726f62; seed |] in
  let planted dims =
    { Planted.dims; moduli = Array.map (Planted.mid_divisor rng) dims; backend = Some "sparse" }
  in
  let ns name v = (name, v, "ns") in
  [
    ns "backend_dense.dft_ns_per_amp.small" (dense_dft ~spans "dense.dft.small" (Array.make 8 4));
    ns "backend_dense.dft_ns_per_amp.pow2" (dense_dft ~spans "dense.dft.pow2" [| 256; 256 |]);
    ns "backend_dense.dft_ns_per_amp.bluestein"
      (dense_dft ~spans "dense.dft.bluestein" [| 240; 240 |]);
    ns "backend_dense.measure_ns_per_amp" (dense_measure ~spans rng [| 256; 256 |]);
    ns "backend_sparse.dft_ns_per_amp.pow2"
      (sparse_dft ~spans rng "sparse.dft.pow2" (planted [| 1024; 1024 |]));
    ns "backend_sparse.dft_ns_per_amp.bluestein"
      (sparse_dft ~spans rng "sparse.dft.bluestein" (planted [| 960; 960 |]));
    ("backend_symbolic.draw_us", symbolic_draw ~spans rng ~r:150, "us");
    ns "coset_state.prep_ns_per_elem" (prep ~spans (planted [| 512; 512 |]));
    ("abelian.decompose_ms", decompose ~spans [| 24; 16 |], "ms");
  ]
