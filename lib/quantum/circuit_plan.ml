open Linalg

type gate = Cmat.t * int list

type step =
  | Fused of { wires : int list; mat : Cmat.t; count : int }
  | Diag of { gates : (int list * Cx.t array) list }
  | Perm of { wires : int list; perm : int array; count : int }

type t = { num_qubits : int; steps : step list; source_gates : int }

let classify_eps = 1e-12
let perm_max_wires = 8

(* ------------------------------------------------------------------ *)
(* Gate classification                                                *)
(* ------------------------------------------------------------------ *)

let is_zero z = Float.abs z.Complex.re <= classify_eps && Float.abs z.Complex.im <= classify_eps

(* Diagonal within classify_eps; any pair of diagonal matrices commutes
   exactly, which is what licenses merging a whole run into one sweep. *)
let diag_of m =
  let dim = Cmat.rows m in
  let ok = ref true in
  for i = 0 to dim - 1 do
    for j = 0 to dim - 1 do
      if i <> j && not (is_zero m.(i).(j)) then ok := false
    done
  done;
  if !ok then Some (Array.init dim (fun i -> m.(i).(i))) else None

(* 0/1 permutation matrix: exactly one ~1 entry per column, the rest
   ~0.  [p.(j)] is the row carrying column [j]'s 1 — the amplitude at
   sub-index [j] moves to [p.(j)]. *)
let perm_of m =
  let dim = Cmat.rows m in
  let p = Array.make dim (-1) in
  let ok = ref true in
  for j = 0 to dim - 1 do
    for i = 0 to dim - 1 do
      let z = m.(i).(j) in
      if
        Float.abs (z.Complex.re -. 1.0) <= classify_eps && Float.abs z.Complex.im <= classify_eps
      then if p.(j) = -1 then p.(j) <- i else ok := false
      else if not (is_zero z) then ok := false
    done;
    if p.(j) = -1 then ok := false
  done;
  if !ok then Some p else None

type klass = KDiag of Cx.t array | KPerm of int array | KDense

let classify (m, wires) =
  match diag_of m with
  | Some d when List.length wires <= 2 -> KDiag d
  | _ -> ( match perm_of m with Some p -> KPerm p | None -> KDense)

(* ------------------------------------------------------------------ *)
(* Compilation: greedy fusion of adjacent compatible gates            *)
(* ------------------------------------------------------------------ *)

(* Lift gate [g]'s permutation [p] (over its own wire list) to the
   sorted union wire list and compose it after [total].  Sub-indices
   put the first listed wire in the most significant position, matching
   the gate convention everywhere else. *)
let compose_perm ~union ~total (p, gwires) =
  let k = List.length union in
  let pos = Hashtbl.create 8 in
  List.iteri (fun i w -> Hashtbl.replace pos w i) union;
  let gk = List.length gwires in
  let gpos = Array.of_list (List.map (Hashtbl.find pos) gwires) in
  let lift s =
    let sg = ref 0 in
    for i = 0 to gk - 1 do
      sg := (!sg lsl 1) lor ((s lsr (k - 1 - gpos.(i))) land 1)
    done;
    let dg = p.(!sg) in
    let s' = ref s in
    for i = 0 to gk - 1 do
      let bit = k - 1 - gpos.(i) in
      let v = (dg lsr (gk - 1 - i)) land 1 in
      s' := !s' land lnot (1 lsl bit) lor (v lsl bit)
    done;
    !s'
  in
  Array.map lift total

type seg =
  | SNone
  | SDense of int list * Cmat.t list (* wires, matrices latest-first *)
  | SDiag of (int list * Cx.t array) list (* latest-first *)
  | SPerm of int list * (int array * int list) list (* sorted union, gates latest-first *)

let flush seg steps =
  match seg with
  | SNone -> steps
  | SDense (wires, mats) ->
      let mat =
        match mats with
        | [] -> assert false
        | last :: earlier -> List.fold_left (fun acc m -> Cmat.mul acc m) last earlier
      in
      Fused { wires; mat; count = List.length mats } :: steps
  | SDiag gates -> Diag { gates = List.rev gates } :: steps
  | SPerm (union, gates) ->
      let k = List.length union in
      let total = Array.init (1 lsl k) (fun s -> s) in
      let perm =
        List.fold_left (fun acc g -> compose_perm ~union ~total:acc g) total (List.rev gates)
      in
      Perm { wires = union; perm; count = List.length gates } :: steps

let sorted_union a b = List.sort_uniq Int.compare (a @ b)

let compile ~num_qubits gates =
  let steps, seg =
    List.fold_left
      (fun (steps, seg) ((m, wires) as g) ->
        match (classify g, seg) with
        | KDiag d, SDiag acc -> (steps, SDiag ((wires, d) :: acc))
        | KDiag d, _ -> (flush seg steps, SDiag [ (wires, d) ])
        | KPerm p, SPerm (union, acc)
          when List.length (sorted_union union wires) <= perm_max_wires ->
            (steps, SPerm (sorted_union union wires, (p, wires) :: acc))
        | KPerm p, _ -> (flush seg steps, SPerm (List.sort Int.compare wires, [ (p, wires) ]))
        | KDense, SDense (w, acc) when List.equal Int.equal w wires ->
            (steps, SDense (w, m :: acc))
        | KDense, _ -> (flush seg steps, SDense (wires, [ m ])))
      ([], SNone) gates
  in
  let steps = List.rev (flush seg steps) in
  Metrics.record_plan_compiled ();
  { num_qubits; steps; source_gates = List.length gates }

(* ------------------------------------------------------------------ *)
(* Execution                                                          *)
(* ------------------------------------------------------------------ *)

(* Bit position of wire [w] in an [n]-qubit register: big-endian, wire
   0 is the most significant (Backend.strides with all dims = 2). *)
let bit_of n w = n - 1 - w

(* Expand a rest index into a fibre base index by inserting zero bits
   at the given positions, which must be sorted ascending. *)
let base_of_rest bits_asc r =
  let b = ref r in
  Array.iter
    (fun t ->
      let mask = (1 lsl t) - 1 in
      b := ((!b lsr t) lsl (t + 1)) lor (!b land mask))
    bits_asc;
  !b

(* Fibre offsets of every sub-assignment of the listed wires (first
   listed wire most significant), as in Backend_dense.apply_wires. *)
let sub_offsets n wires =
  let k = List.length wires in
  let bits = Array.of_list (List.map (bit_of n) wires) in
  Array.init (1 lsl k) (fun s ->
      let off = ref 0 in
      for i = 0 to k - 1 do
        off := !off lor (((s lsr (k - 1 - i)) land 1) lsl bits.(i))
      done;
      !off)

let mat_table m =
  let dim = Cmat.rows m in
  let t = Array.make (2 * dim * dim) 0.0 in
  for i = 0 to dim - 1 do
    for j = 0 to dim - 1 do
      let z = m.(i).(j) in
      t.((2 * ((i * dim) + j))) <- z.Complex.re;
      t.((2 * ((i * dim) + j)) + 1) <- z.Complex.im
    done
  done;
  t

let sorted_bits n wires =
  let bits = Array.of_list (List.map (bit_of n) wires) in
  Array.sort Int.compare bits;
  bits

module BA1 = Bigarray.Array1

(* Generic in-place k-wire dense apply over the Bigarray planes:
   Backend_dense.apply_wires's gather/transform/scatter, minus the
   per-gate output planes (the fibre is staged in chunk-local scratch,
   so in-place is safe). *)
let exec_dense_generic n bre bim wires mat =
  let total = 1 lsl n in
  let k = List.length wires in
  let sub_total = 1 lsl k in
  let offs = sub_offsets n wires in
  let bits_asc = sorted_bits n wires in
  let m_re, m_im = Cmat.planes mat in
  Parallel.parallel_for 0 (total lsr k) (fun rlo rhi ->
      let f_re = Array.make sub_total 0.0 and f_im = Array.make sub_total 0.0 in
      let y_re = Array.make sub_total 0.0 and y_im = Array.make sub_total 0.0 in
      for r = rlo to rhi - 1 do
        let base = base_of_rest bits_asc r in
        for s = 0 to sub_total - 1 do
          let j = base + Array.unsafe_get offs s in
          Array.unsafe_set f_re s (BA1.unsafe_get bre j);
          Array.unsafe_set f_im s (BA1.unsafe_get bim j)
        done;
        Cmat.apply_planes ~rows:sub_total ~cols:sub_total ~m_re ~m_im ~x_re:f_re ~x_im:f_im
          ~y_re ~y_im;
        for s = 0 to sub_total - 1 do
          let j = base + Array.unsafe_get offs s in
          BA1.unsafe_set bre j (Array.unsafe_get y_re s);
          BA1.unsafe_set bim j (Array.unsafe_get y_im s)
        done
      done)

let exec_perm n bre bim wires perm =
  let total = 1 lsl n in
  let k = List.length wires in
  let sub_total = 1 lsl k in
  let offs = sub_offsets n wires in
  let bits_asc = sorted_bits n wires in
  Parallel.parallel_for 0 (total lsr k) (fun rlo rhi ->
      let f_re = Array.make sub_total 0.0 and f_im = Array.make sub_total 0.0 in
      for r = rlo to rhi - 1 do
        let base = base_of_rest bits_asc r in
        for s = 0 to sub_total - 1 do
          let j = base + Array.unsafe_get offs s in
          Array.unsafe_set f_re s (BA1.unsafe_get bre j);
          Array.unsafe_set f_im s (BA1.unsafe_get bim j)
        done;
        for s = 0 to sub_total - 1 do
          let j = base + Array.unsafe_get offs (Array.unsafe_get perm s) in
          BA1.unsafe_set bre j (Array.unsafe_get f_re s);
          BA1.unsafe_set bim j (Array.unsafe_get f_im s)
        done
      done)

let exec_diag n bre bim gates =
  let total = 1 lsl n in
  let g1 = List.filter (fun (w, _) -> List.length w = 1) gates in
  let g2 = List.filter (fun (w, _) -> List.length w = 2) gates in
  let shifts1 = Array.of_list (List.map (fun (w, _) -> bit_of n (List.hd w)) g1) in
  let d1 = Array.make (4 * List.length g1) 0.0 in
  List.iteri
    (fun f (_, d) ->
      Array.iteri
        (fun v (z : Cx.t) ->
          d1.((4 * f) + (2 * v)) <- z.Complex.re;
          d1.((4 * f) + (2 * v) + 1) <- z.Complex.im)
        d)
    g1;
  let shifts2 =
    Array.concat
      (List.map (fun (w, _) -> Array.of_list (List.map (bit_of n) w)) g2)
  in
  let d2 = Array.make (8 * List.length g2) 0.0 in
  List.iteri
    (fun f (_, d) ->
      Array.iteri
        (fun v (z : Cx.t) ->
          d2.((8 * f) + (2 * v)) <- z.Complex.re;
          d2.((8 * f) + (2 * v) + 1) <- z.Complex.im)
        d)
    g2;
  Parallel.parallel_for 0 total (fun lo hi ->
      Fused_kernels.diag ~re:bre ~im:bim ~lo ~hi ~shifts1 ~d1 ~shifts2 ~d2)

let exec_step n bre bim step =
  let total = 1 lsl n in
  (match step with
  | Fused { wires = [ w ]; mat; _ } ->
      let bit = bit_of n w and m = mat_table mat in
      Parallel.parallel_for 0 (total / 2) (fun lo hi ->
          Fused_kernels.apply1 ~re:bre ~im:bim ~lo ~hi ~bit ~m)
  | Fused { wires = [ a; b ]; mat; _ } ->
      let bit_a = bit_of n a and bit_b = bit_of n b and m = mat_table mat in
      Parallel.parallel_for 0 (total / 4) (fun lo hi ->
          Fused_kernels.apply2 ~re:bre ~im:bim ~lo ~hi ~bit_a ~bit_b ~m)
  | Fused { wires; mat; _ } -> exec_dense_generic n bre bim wires mat
  | Diag { gates } -> exec_diag n bre bim gates
  | Perm { wires; perm; _ } -> exec_perm n bre bim wires perm);
  Metrics.record_fused_pass ()

let run_planes plan ~re ~im =
  let total = 1 lsl plan.num_qubits in
  if Array.length re <> total || Array.length im <> total then
    invalid_arg "Circuit_plan.run_planes: plane length mismatch";
  let bre = Fused_kernels.create total and bim = Fused_kernels.create total in
  Parallel.parallel_for 0 total (fun lo hi ->
      for i = lo to hi - 1 do
        BA1.unsafe_set bre i (Array.unsafe_get re i);
        BA1.unsafe_set bim i (Array.unsafe_get im i)
      done);
  List.iter (exec_step plan.num_qubits bre bim) plan.steps;
  Metrics.add_fused_gates plan.source_gates;
  let out_re = Array.make total 0.0 and out_im = Array.make total 0.0 in
  Parallel.parallel_for 0 total (fun lo hi ->
      for i = lo to hi - 1 do
        Array.unsafe_set out_re i (BA1.unsafe_get bre i);
        Array.unsafe_set out_im i (BA1.unsafe_get bim i)
      done);
  (out_re, out_im)

(* ------------------------------------------------------------------ *)
(* Introspection                                                      *)
(* ------------------------------------------------------------------ *)

let gate_count t = t.source_gates
let step_count t = List.length t.steps

let bytes t =
  List.fold_left
    (fun acc step ->
      acc + 64
      +
      match step with
      | Fused { mat; _ } ->
          let dim = Cmat.rows mat in
          2 * dim * dim * 8
      | Diag { gates } ->
          List.fold_left (fun a (_, d) -> a + (Array.length d * 16) + 32) 0 gates
      | Perm { perm; _ } -> Array.length perm * 8)
    128 t.steps

let stats t =
  let f1 = ref 0 and f2 = ref 0 and fk = ref 0 and fused_src = ref 0 in
  let dpass = ref 0 and dgates = ref 0 in
  let ppass = ref 0 and pgates = ref 0 in
  List.iter
    (function
      | Fused { wires; count; _ } ->
          fused_src := !fused_src + count;
          incr (match List.length wires with 1 -> f1 | 2 -> f2 | _ -> fk)
      | Diag { gates } ->
          incr dpass;
          dgates := !dgates + List.length gates
      | Perm { count; _ } ->
          incr ppass;
          pgates := !pgates + count)
    t.steps;
  [
    ("gates", string_of_int t.source_gates);
    ("steps", string_of_int (step_count t));
    ("fused_1q", string_of_int !f1);
    ("fused_2q", string_of_int !f2);
    ("fused_kq", string_of_int !fk);
    ("fused_gates", string_of_int !fused_src);
    ("diag_passes", string_of_int !dpass);
    ("diag_gates", string_of_int !dgates);
    ("perm_passes", string_of_int !ppass);
    ("perm_gates", string_of_int !pgates);
    ("bytes", string_of_int (bytes t));
  ]

let fingerprint ~num_qubits gates =
  let buf = Buffer.create 1024 in
  Buffer.add_int64_le buf (Int64.of_int num_qubits);
  List.iter
    (fun (m, wires) ->
      Buffer.add_char buf 'G';
      Buffer.add_int64_le buf (Int64.of_int (List.length wires));
      List.iter (fun w -> Buffer.add_int64_le buf (Int64.of_int w)) wires;
      let dim = Cmat.rows m in
      Buffer.add_int64_le buf (Int64.of_int dim);
      for i = 0 to dim - 1 do
        for j = 0 to dim - 1 do
          let z = m.(i).(j) in
          Buffer.add_int64_le buf (Int64.bits_of_float z.Complex.re);
          Buffer.add_int64_le buf (Int64.bits_of_float z.Complex.im)
        done
      done)
    gates;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let pp fmt t =
  Format.fprintf fmt "@[<v>plan over %d qubits: %d gates -> %d steps@," t.num_qubits
    t.source_gates (step_count t);
  List.iteri
    (fun i step ->
      let kind, wires, n =
        match step with
        | Fused { wires; count; _ } -> ("fused", wires, count)
        | Diag { gates } ->
            ("diag", List.sort_uniq Int.compare (List.concat_map fst gates), List.length gates)
        | Perm { wires; count; _ } -> ("perm", wires, count)
      in
      Format.fprintf fmt "  step %d: %s x%d on [%s]@," i kind n
        (String.concat "; " (List.map string_of_int wires)))
    t.steps;
  Format.fprintf fmt "@]"
