open Linalg

(* Dense state vector on two unboxed float planes.

   One flat [float array] per component (re/im) instead of one boxed
   [Complex.t] per amplitude: the planes are contiguous unboxed double
   arrays (OCaml flat float arrays), so the hot kernels below run
   pointer-chase- and allocation-free over them, and split naturally
   into disjoint index ranges for the {!Parallel} domain pool.

   Determinism contract (enforced by test_parallel.ml): every kernel is
   bit-for-bit identical at every job count.  Elementwise/fibre kernels
   write disjoint output ranges, so chunking cannot change the result;
   the two floating-point reductions (probabilities, norm2) use a chunk
   count fixed by the workload geometry (Parallel.reduction_chunks,
   never the job count) and combine partial sums in chunk order. *)

type t = { dims : int array; re : float array; im : float array }

let total_of dims =
  let total = Backend.total_of dims in
  if total > Backend.dense_cap then invalid_arg "State: register too large to simulate";
  Metrics.record_dense_alloc total;
  total

let create dims =
  let total = total_of dims in
  let re = Array.make total 0.0 and im = Array.make total 0.0 in
  re.(0) <- 1.0;
  { dims = Array.copy dims; re; im }

let of_basis dims x =
  let total = total_of dims in
  let re = Array.make total 0.0 and im = Array.make total 0.0 in
  re.(Backend.encode dims x) <- 1.0;
  { dims = Array.copy dims; re; im }

let of_amplitudes dims v =
  let total = total_of dims in
  if Cvec.dim v <> total then invalid_arg "State.of_amplitudes: dimension mismatch";
  let re, im = Cvec.split v in
  Cvec.normalize_planes ~re ~im;
  { dims = Array.copy dims; re; im }

let of_support dims entries =
  let total = total_of dims in
  (match entries with [] -> invalid_arg "State.of_support: empty support" | _ :: _ -> ());
  let re = Array.make total 0.0 and im = Array.make total 0.0 in
  List.iter
    (fun (x, a) ->
      let idx = Backend.encode dims x in
      re.(idx) <- re.(idx) +. a.Complex.re;
      im.(idx) <- im.(idx) +. a.Complex.im)
    entries;
  Cvec.normalize_planes ~re ~im;
  { dims = Array.copy dims; re; im }

let of_indices dims idxs =
  let total = total_of dims in
  let n = Array.length idxs in
  if n = 0 then invalid_arg "State.of_indices: empty support";
  let prev = ref (-1) in
  Array.iter
    (fun i ->
      if i < 0 || i >= total then invalid_arg "State.of_indices: index out of range";
      if i <= !prev then invalid_arg "State.of_indices: indices must be strictly increasing";
      prev := i)
    idxs;
  let re = Array.make total 0.0 and im = Array.make total 0.0 in
  let a = 1.0 /. sqrt (float_of_int n) in
  Array.iter (fun i -> re.(i) <- a) idxs;
  { dims = Array.copy dims; re; im }

let dims t = Array.copy t.dims
let num_wires t = Array.length t.dims
let total_dim t = Array.length t.re

let support_size t =
  let n = ref 0 in
  for idx = 0 to Array.length t.re - 1 do
    (* hsp-lint: allow float-eq — exact nonzero test, not a tolerance *)
    if t.re.(idx) <> 0.0 || t.im.(idx) <> 0.0 then incr n
  done;
  !n

let amplitudes t = Cvec.join ~re:t.re ~im:t.im
let amp_at t idx = Cx.make t.re.(idx) t.im.(idx)

let iter_nonzero t f =
  for idx = 0 to Array.length t.re - 1 do
    (* hsp-lint: allow float-eq — exact nonzero test, not a tolerance *)
    if t.re.(idx) <> 0.0 || t.im.(idx) <> 0.0 then f idx (Cx.make t.re.(idx) t.im.(idx))
  done

let tensor a b =
  let dims = Array.append a.dims b.dims in
  let total = total_of dims in
  let nb = Array.length b.re in
  let re = Array.make total 0.0 and im = Array.make total 0.0 in
  for i = 0 to Array.length a.re - 1 do
    let ar = a.re.(i) and ai = a.im.(i) in
    let base = i * nb in
    for j = 0 to nb - 1 do
      re.(base + j) <- (ar *. b.re.(j)) -. (ai *. b.im.(j));
      im.(base + j) <- (ar *. b.im.(j)) +. (ai *. b.re.(j))
    done
  done;
  { dims; re; im }

let uniform dims =
  let total = total_of dims in
  let a = 1.0 /. sqrt (float_of_int total) in
  { dims = Array.copy dims; re = Array.make total a; im = Array.make total 0.0 }

(* Squared norm with schedule-invariant chunking: the partial sums are
   combined in chunk order, and the chunk count depends only on the
   vector length, so the result is the same at every job count. *)
let norm2_planes ~re ~im total =
  let nchunks = Parallel.reduction_chunks ~slot_words:1 total in
  let partials =
    Parallel.map_chunks ~chunks:nchunks 0 total (fun lo hi -> Cvec.norm2_planes ~re ~im ~lo ~hi)
  in
  Array.fold_left ( +. ) 0.0 partials

let apply_wires t ~wires m =
  let n = Array.length t.dims in
  List.iter (fun w -> if w < 0 || w >= n then invalid_arg "State.apply_wires: bad wire") wires;
  let wires_arr = Array.of_list wires in
  let k = Array.length wires_arr in
  let seen = Array.make n false in
  Array.iter
    (fun w ->
      if seen.(w) then invalid_arg "State.apply_wires: duplicate wire";
      seen.(w) <- true)
    wires_arr;
  let sub_dims = Array.map (fun w -> t.dims.(w)) wires_arr in
  let sub_total = Array.fold_left ( * ) 1 sub_dims in
  if Cmat.rows m <> sub_total || Cmat.cols m <> sub_total then
    invalid_arg "State.apply_wires: matrix dimension mismatch";
  let str = Backend.strides t.dims in
  let sub_str = Array.map (fun w -> str.(w)) wires_arr in
  (* Enumerate base indices where all selected wires are zero, then
     gather/transform/scatter the fibre above each base index. *)
  let rest_wires = List.filter (fun w -> not seen.(w)) (List.init n (fun i -> i)) in
  let rest_dims = List.map (fun w -> t.dims.(w)) rest_wires in
  let rest_str = List.map (fun w -> str.(w)) rest_wires in
  let rest_total = List.fold_left ( * ) 1 rest_dims in
  let rest_dims = Array.of_list rest_dims and rest_str = Array.of_list rest_str in
  (* Offsets of every sub-assignment of the selected wires. *)
  let sub_offsets = Array.make sub_total 0 in
  for s = 0 to sub_total - 1 do
    let rem = ref s and off = ref 0 in
    for i = k - 1 downto 0 do
      off := !off + (!rem mod sub_dims.(i) * sub_str.(i));
      rem := !rem / sub_dims.(i)
    done;
    sub_offsets.(s) <- !off
  done;
  Metrics.add_gate_fibres rest_total;
  let m_re, m_im = Cmat.planes m in
  let total = Array.length t.re in
  let out_re = Array.make total 0.0 and out_im = Array.make total 0.0 in
  let src_re = t.re and src_im = t.im in
  (* Fibres are disjoint index sets, so parallelising over the rest
     (base) indices is write-disjoint and job-count-invariant. *)
  Parallel.parallel_for 0 rest_total (fun rlo rhi ->
      (* chunk-local scratch: gathered fibre and transformed fibre *)
      let f_re = Array.make sub_total 0.0 and f_im = Array.make sub_total 0.0 in
      let y_re = Array.make sub_total 0.0 and y_im = Array.make sub_total 0.0 in
      for r = rlo to rhi - 1 do
        let rem = ref r and base = ref 0 in
        for i = Array.length rest_dims - 1 downto 0 do
          base := !base + (!rem mod rest_dims.(i) * rest_str.(i));
          rem := !rem / rest_dims.(i)
        done;
        let base = !base in
        for s = 0 to sub_total - 1 do
          let j = base + Array.unsafe_get sub_offsets s in
          Array.unsafe_set f_re s (Array.unsafe_get src_re j);
          Array.unsafe_set f_im s (Array.unsafe_get src_im j)
        done;
        Cmat.apply_planes ~rows:sub_total ~cols:sub_total ~m_re ~m_im ~x_re:f_re ~x_im:f_im
          ~y_re ~y_im;
        for s = 0 to sub_total - 1 do
          let j = base + Array.unsafe_get sub_offsets s in
          Array.unsafe_set out_re j (Array.unsafe_get y_re s);
          Array.unsafe_set out_im j (Array.unsafe_get y_im s)
        done
      done);
  { t with re = out_re; im = out_im }

let apply_wire t ~wire m = apply_wires t ~wires:[ wire ] m

(* Compiled-plan execution: one Bigarray staging pass, every plan step
   in place, one copy back — no per-gate plane allocation.  The planes
   of [t] are never written (immutability convention). *)
let run_plan plan t =
  let re, im = Circuit_plan.run_planes plan ~re:t.re ~im:t.im in
  { t with re; im }

let apply_dft t ~wire ~inverse =
  let d = t.dims.(wire) in
  let total = Array.length t.re in
  (* Every length-d fibre of the register is transformed, populated or
     not: total/d fibres — the dense cost the sparse backend avoids. *)
  Metrics.add_dft_fibres (total / d);
  if d > 4 then begin
    (* FFT fast path: fibre (b, off) for block b and in-block offset
       off; flattening the two loops into one index range [0,
       total/d) gives the domain pool an even split. *)
    let str = (Backend.strides t.dims).(wire) in
    let block = str * d in
    let out_re = Array.make total 0.0 and out_im = Array.make total 0.0 in
    let src_re = t.re and src_im = t.im in
    Parallel.parallel_for 0 (total / d) (fun plo phi ->
        let buf = Array.make d Cx.zero in
        for p = plo to phi - 1 do
          let base = p / str * block and off = p mod str in
          for k = 0 to d - 1 do
            let j = base + off + (k * str) in
            buf.(k) <- Cx.make (Array.unsafe_get src_re j) (Array.unsafe_get src_im j)
          done;
          Fft.dft_any ~inverse buf;
          for k = 0 to d - 1 do
            let j = base + off + (k * str) in
            let z = buf.(k) in
            Array.unsafe_set out_re j z.Complex.re;
            Array.unsafe_set out_im j z.Complex.im
          done
        done);
    { t with re = out_re; im = out_im }
  end
  else
    let m = Cmat.dft d in
    apply_wire t ~wire (if inverse then Cmat.adjoint m else m)

let apply_basis_map t f =
  let total = Array.length t.re in
  let n = Array.length t.dims in
  let str = Backend.strides t.dims in
  let dims = t.dims in
  (* Phase 1 (parallel): evaluate the map.  The digit extractor walks
     the precomputed strides into a chunk-local scratch tuple instead
     of allocating a fresh Backend.decode array per index; [f] must
     not retain its argument (State.apply_basis_map documents this). *)
  let target = Array.make total 0 in
  Parallel.parallel_for 0 total (fun lo hi ->
      let x = Array.make n 0 in
      for idx = lo to hi - 1 do
        for i = 0 to n - 1 do
          Array.unsafe_set x i (idx / Array.unsafe_get str i mod Array.unsafe_get dims i)
        done;
        target.(idx) <- Backend.encode dims (f x)
      done);
  (* Phase 2 (serial): exact bijection check + scatter.  Serialising
     the check keeps non-bijection detection deterministic; the
     expensive part (evaluating f) was phase 1. *)
  let out_re = Array.make total 0.0 and out_im = Array.make total 0.0 in
  let hit = Bytes.make total '\000' in
  for idx = 0 to total - 1 do
    let j = target.(idx) in
    if Bytes.get hit j <> '\000' then invalid_arg "State.apply_basis_map: not a bijection";
    Bytes.set hit j '\001';
    out_re.(j) <- t.re.(idx);
    out_im.(j) <- t.im.(idx)
  done;
  { t with re = out_re; im = out_im }

let apply_oracle_add t ~in_wires ~out_wire ~f =
  let d = t.dims.(out_wire) in
  let ins = Array.of_list in_wires in
  apply_basis_map t (fun x ->
      let input = Array.map (fun w -> x.(w)) ins in
      let v = f input in
      if v < 0 || v >= d then invalid_arg "State.apply_oracle_add: oracle value out of range";
      let y = Array.copy x in
      y.(out_wire) <- (x.(out_wire) + v) mod d;
      y)

let probabilities t ~wires =
  let wires_arr = Array.of_list wires in
  let k = Array.length wires_arr in
  let sub_dims = Array.map (fun w -> t.dims.(w)) wires_arr in
  let sub_total = Array.fold_left ( * ) 1 sub_dims in
  let str = Backend.strides t.dims in
  let sub_str = Array.make k 1 in
  for i = k - 2 downto 0 do
    sub_str.(i) <- sub_str.(i + 1) * sub_dims.(i + 1)
  done;
  let total = Array.length t.re in
  let src_re = t.re and src_im = t.im in
  let dims = t.dims in
  (* Per-chunk partial probability arrays, combined in chunk order with
     a chunk count fixed by (total, sub_total): the reduction order is
     identical at every job count. *)
  let nchunks = Parallel.reduction_chunks ~slot_words:sub_total total in
  let partials =
    Parallel.map_chunks ~chunks:nchunks 0 total (fun lo hi ->
        let p = Array.make sub_total 0.0 in
        for idx = lo to hi - 1 do
          let o = ref 0 in
          for i = 0 to k - 1 do
            let w = Array.unsafe_get wires_arr i in
            o :=
              !o
              + (idx / Array.unsafe_get str w mod Array.unsafe_get dims w)
                * Array.unsafe_get sub_str i
          done;
          let x = Array.unsafe_get src_re idx and y = Array.unsafe_get src_im idx in
          let o = !o in
          Array.unsafe_set p o (Array.unsafe_get p o +. (x *. x) +. (y *. y))
        done;
        p)
  in
  let probs = Array.make sub_total 0.0 in
  Array.iter
    (fun p ->
      for o = 0 to sub_total - 1 do
        probs.(o) <- probs.(o) +. p.(o)
      done)
    partials;
  probs

let measure rng t ~wires =
  let wires_arr = Array.of_list wires in
  let k = Array.length wires_arr in
  let sub_dims = Array.map (fun w -> t.dims.(w)) wires_arr in
  let probs = probabilities t ~wires in
  let o = Backend.sample_discrete rng probs in
  let outcome = Backend.decode sub_dims o in
  let str = Backend.strides t.dims in
  let total = Array.length t.re in
  let src_re = t.re and src_im = t.im in
  let dims = t.dims in
  (* Project: zero every amplitude whose selected wires differ.
     Elementwise, hence write-disjoint under any chunking. *)
  let out_re = Array.make total 0.0 and out_im = Array.make total 0.0 in
  Parallel.parallel_for 0 total (fun lo hi ->
      for idx = lo to hi - 1 do
        let keep = ref true in
        for i = 0 to k - 1 do
          let w = Array.unsafe_get wires_arr i in
          if idx / Array.unsafe_get str w mod Array.unsafe_get dims w <> Array.unsafe_get outcome i
          then keep := false
        done;
        if !keep then begin
          Array.unsafe_set out_re idx (Array.unsafe_get src_re idx);
          Array.unsafe_set out_im idx (Array.unsafe_get src_im idx)
        end
      done);
  let nrm = sqrt (norm2_planes ~re:out_re ~im:out_im total) in
  if nrm < Cvec.zero_norm_floor then invalid_arg "Cvec.normalize: zero vector";
  let s = 1.0 /. nrm in
  Parallel.parallel_for 0 total (fun lo hi -> Cvec.scale_planes s ~re:out_re ~im:out_im ~lo ~hi);
  (outcome, { t with re = out_re; im = out_im })

let norm t = sqrt (norm2_planes ~re:t.re ~im:t.im (Array.length t.re))

let digest t = Backend.digest_planes ~tag:"dense" ~dims:t.dims ~re:t.re ~im:t.im ()

let approx_equal ?(eps = 1e-9) a b =
  Backend.dims_equal a.dims b.dims
  && Array.length a.re = Array.length b.re
  &&
  let ok = ref true in
  for idx = 0 to Array.length a.re - 1 do
    if Float.abs (a.re.(idx) -. b.re.(idx)) > eps || Float.abs (a.im.(idx) -. b.im.(idx)) > eps
    then ok := false
  done;
  !ok

let pp fmt t =
  Format.fprintf fmt "@[<v>state over dims [%s]@,%a@]"
    (String.concat "; " (Array.to_list (Array.map string_of_int t.dims)))
    Cvec.pp (amplitudes t)
