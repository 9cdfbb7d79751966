open Linalg

type t =
  | Dense of Backend_dense.t
  | Sparse of Backend_sparse.t
  | Symbolic of Backend_symbolic.t

(* Static capability checks (see Backend.CORE / AMPLITUDES): the
   amplitude backends satisfy both layers, the symbolic backend the
   core layer only.  The eta-expansions erase the sparse/htbl optional
   [?prune_eps] arguments, which the signatures deliberately omit. *)
module _ : Backend.S = Backend_dense

module _ : Backend.S = struct
  include Backend_sparse

  let create dims = create dims
  let of_basis dims x = of_basis dims x
  let of_amplitudes dims v = of_amplitudes dims v
  let of_support dims entries = of_support dims entries
  let uniform dims = uniform dims
end

module _ : Backend.S = struct
  include Backend_htbl

  let create dims = create dims
  let of_basis dims x = of_basis dims x
  let of_amplitudes dims v = of_amplitudes dims v
  let of_support dims entries = of_support dims entries
  let uniform dims = uniform dims
end

module _ : Backend.CORE = Backend_symbolic

let max_total_dim = Backend.dense_cap

let backend = function
  | Dense _ -> Backend.Dense
  | Sparse _ -> Backend.Sparse
  | Symbolic _ -> Backend.Symbolic

let encode = Backend.encode
let decode = Backend.decode

(* Only Auto needs the total dimension to resolve; an explicit choice
   must not form it at all, or Z_2^200-shaped registers would die in
   the dispatcher before reaching the symbolic backend. *)
let resolve ?backend dims =
  match (match backend with Some c -> c | None -> Backend.default ()) with
  | Backend.Auto -> Backend.resolve ~backend:Backend.Auto ~total:(Backend.total_of dims) ()
  | c -> c

let create ?backend dims =
  Metrics.record_state_created ();
  match resolve ?backend dims with
  | Backend.Sparse -> Sparse (Backend_sparse.create dims)
  | Backend.Symbolic -> Symbolic (Backend_symbolic.create dims)
  | _ -> Dense (Backend_dense.create dims)

let of_basis ?backend dims x =
  Metrics.record_state_created ();
  match resolve ?backend dims with
  | Backend.Sparse -> Sparse (Backend_sparse.of_basis dims x)
  | Backend.Symbolic -> Symbolic (Backend_symbolic.of_basis dims x)
  | _ -> Dense (Backend_dense.of_basis dims x)

let of_amplitudes ?backend dims v =
  Metrics.record_state_created ();
  match resolve ?backend dims with
  | Backend.Sparse -> Sparse (Backend_sparse.of_amplitudes dims v)
  (* An amplitude vector is inherently non-symbolic input: land it on
     the sparse backend rather than refuse (HSP_BACKEND=symbolic runs
     the whole suite, most of which is amplitude-level). *)
  | Backend.Symbolic -> Sparse (Backend_sparse.of_amplitudes dims v)
  | _ -> Dense (Backend_dense.of_amplitudes dims v)

(* A sparse construction defaults to the sparse backend (Auto included):
   the caller is telling us the support is small, and beyond the dense
   cap that is the only amplitude representation that exists at all. *)
let of_sparse ?backend ?prune_eps dims entries =
  Metrics.record_state_created ();
  let choice = match backend with Some c -> c | None -> Backend.default () in
  match choice with
  | Backend.Dense -> Dense (Backend_dense.of_support dims entries)
  | Backend.Sparse | Backend.Symbolic | Backend.Auto ->
      Sparse (Backend_sparse.of_support ?prune_eps dims entries)

(* Same default as of_sparse, except that under the symbolic backend a
   segment that is recognisably a coset (which is what the samplers
   build) stays symbolic; anything else falls back to sparse. *)
let of_indices ?backend ?prune_eps dims idxs =
  Metrics.record_state_created ();
  let choice = match backend with Some c -> c | None -> Backend.default () in
  match choice with
  | Backend.Dense -> Dense (Backend_dense.of_indices dims idxs)
  | Backend.Symbolic -> (
      match Backend_symbolic.of_indices_opt dims idxs with
      | Some st -> Symbolic st
      | None -> Sparse (Backend_sparse.of_indices ?prune_eps dims idxs))
  | Backend.Sparse | Backend.Auto -> Sparse (Backend_sparse.of_indices ?prune_eps dims idxs)

let of_coset ?backend sub ~rep =
  Metrics.record_state_created ();
  let choice = match backend with Some c -> c | None -> Backend.default () in
  match choice with
  | Backend.Dense | Backend.Sparse ->
      (* Differential-oracle path: enumerate the coset (small subgroups
         only) and hand the sorted segment to the amplitude backend. *)
      let dims = Backend_symbolic.Subgroup.dims sub in
      let r = Array.length dims in
      let idxs =
        List.map
          (fun h ->
            Backend.encode dims (Array.init r (fun i -> (rep.(i) + h.(i)) mod dims.(i))))
          (Backend_symbolic.Subgroup.elements sub)
      in
      let idxs = Array.of_list idxs in
      Array.sort Int.compare idxs;
      (match choice with
      | Backend.Dense -> Dense (Backend_dense.of_indices dims idxs)
      | _ -> Sparse (Backend_sparse.of_indices dims idxs))
  | Backend.Symbolic | Backend.Auto -> Symbolic (Backend_symbolic.of_coset sub rep)

let uniform ?backend dims =
  Metrics.record_state_created ();
  match resolve ?backend dims with
  | Backend.Sparse -> Sparse (Backend_sparse.uniform dims)
  | Backend.Symbolic -> Symbolic (Backend_symbolic.uniform dims)
  | _ -> Dense (Backend_dense.uniform dims)

let dims = function
  | Dense d -> Backend_dense.dims d
  | Sparse s -> Backend_sparse.dims s
  | Symbolic s -> Backend_symbolic.dims s

let num_wires = function
  | Dense d -> Backend_dense.num_wires d
  | Sparse s -> Backend_sparse.num_wires s
  | Symbolic s -> Backend_symbolic.num_wires s

let total_dim = function
  | Dense d -> Backend_dense.total_dim d
  | Sparse s -> Backend_sparse.total_dim s
  | Symbolic s -> Backend.total_of (Backend_symbolic.dims s)

let support_size = function
  | Dense d -> Backend_dense.support_size d
  | Sparse s -> Backend_sparse.support_size s
  | Symbolic s -> Backend_symbolic.support_size s

(* Amplitude-level operations on a symbolic state materialise it into
   the sparse backend first (ledger: symbolic_demotions), replaying any
   pending per-wire DFTs.  Capped at Caps.symbolic_materialise — the
   symbolic fast path (of_coset / Qft.forward / measure_all) never
   demotes. *)
let demoted s = Backend_symbolic.demote s

let amplitudes = function
  | Dense d -> Backend_dense.amplitudes d
  | Sparse s -> Backend_sparse.amplitudes s
  | Symbolic s -> Backend_sparse.amplitudes (demoted s)

let amp_at t idx =
  match t with
  | Dense d -> Backend_dense.amp_at d idx
  | Sparse s -> Backend_sparse.amp_at s idx
  (* Mid-sweep states have no closed-form amplitudes: materialise the
     pending per-wire DFTs through a demotion first. *)
  | Symbolic s when Backend_symbolic.has_pending s -> Backend_sparse.amp_at (demoted s) idx
  | Symbolic s -> Backend_symbolic.amp_at s idx

let iter_nonzero t f =
  match t with
  | Dense d -> Backend_dense.iter_nonzero d f
  | Sparse s -> Backend_sparse.iter_nonzero s f
  | Symbolic s when Backend_symbolic.has_pending s -> Backend_sparse.iter_nonzero (demoted s) f
  | Symbolic s -> Backend_symbolic.iter_nonzero s f

let to_backend choice t =
  match t with
  | Symbolic s -> (
      match choice with
      | Backend.Symbolic -> t
      | Backend.Auto -> (
          match Backend.total_of_opt (Backend_symbolic.dims s) with
          | None -> t (* nothing else can represent it *)
          | Some total -> (
              match Backend.resolve ~backend:Backend.Auto ~total () with
              | Backend.Dense ->
                  let sp = demoted s in
                  Dense (Backend_dense.of_amplitudes (Backend_sparse.dims sp)
                           (Backend_sparse.amplitudes sp))
              | _ -> Sparse (demoted s)))
      | Backend.Sparse -> Sparse (demoted s)
      | Backend.Dense ->
          let sp = demoted s in
          Dense (Backend_dense.of_amplitudes (Backend_sparse.dims sp)
                   (Backend_sparse.amplitudes sp)))
  | Dense _ | Sparse _ -> (
      match choice with
      | Backend.Symbolic ->
          invalid_arg
            "State.to_backend: amplitude states do not convert to symbolic (build via of_coset)"
      | _ -> (
          match (Backend.resolve ~backend:choice ~total:(total_dim t) (), t) with
          | Backend.Sparse, Dense d ->
              Sparse
                (Backend_sparse.of_amplitudes (Backend_dense.dims d) (Backend_dense.amplitudes d))
          | (Backend.Dense | Backend.Auto), Sparse s ->
              Dense
                (Backend_dense.of_amplitudes (Backend_sparse.dims s) (Backend_sparse.amplitudes s))
          | _ -> t))

let tensor a b =
  Metrics.record_state_created ();
  match (a, b) with
  | Dense x, Dense y -> Dense (Backend_dense.tensor x y)
  | Sparse x, Sparse y -> Sparse (Backend_sparse.tensor x y)
  | Symbolic x, Symbolic y
    when (not (Backend_symbolic.has_pending x)) && not (Backend_symbolic.has_pending y) ->
      Symbolic (Backend_symbolic.tensor x y)
  (* Mixed operands promote to sparse: the product support is the
     product of supports, and sparse has no size ceiling to trip. *)
  | _ ->
      let to_sparse = function
        | Sparse x -> x
        | Dense d -> Backend_sparse.of_amplitudes (Backend_dense.dims d) (Backend_dense.amplitudes d)
        | Symbolic s -> demoted s
      in
      Sparse (Backend_sparse.tensor (to_sparse a) (to_sparse b))

(* Per-call ledger ticks live here, in the dispatcher, so dense,
   sparse and symbolic runs of the same circuit report identical
   counts by construction; the backends record only the work
   statistics (fibres, support, pruning, rewrites) on which the
   representations differ. *)

let apply_wires t ~wires m =
  Metrics.record_gate ();
  match t with
  | Dense d -> Dense (Backend_dense.apply_wires d ~wires m)
  | Sparse s -> Sparse (Backend_sparse.apply_wires s ~wires m)
  | Symbolic s -> Sparse (Backend_sparse.apply_wires (demoted s) ~wires m)

let apply_wire t ~wire m = apply_wires t ~wires:[ wire ] m

(* A plan run is [gate_count] gate applications as far as the per-call
   ledger is concerned, so a circuit reports the same [gate_apps] on
   every backend; the fused-pass counters live in Circuit_plan where
   the work actually differs. *)
let run_plan plan t =
  match t with
  | Dense d ->
      for _ = 1 to Circuit_plan.gate_count plan do
        Metrics.record_gate ()
      done;
      Some (Dense (Backend_dense.run_plan plan d))
  | Sparse _ | Symbolic _ -> None

let apply_dft t ~wire ~inverse =
  Metrics.record_dft ();
  match t with
  | Dense d -> Dense (Backend_dense.apply_dft d ~wire ~inverse)
  | Sparse s -> Sparse (Backend_sparse.apply_dft s ~wire ~inverse)
  | Symbolic s ->
      if Backend_symbolic.can_apply_dft s ~wire ~inverse then
        Symbolic (Backend_symbolic.apply_dft s ~wire ~inverse)
      else Sparse (Backend_sparse.apply_dft (demoted s) ~wire ~inverse)

let apply_basis_map t f =
  Metrics.record_basis_map ();
  match t with
  | Dense d -> Dense (Backend_dense.apply_basis_map d f)
  | Sparse s -> Sparse (Backend_sparse.apply_basis_map s f)
  | Symbolic s -> Sparse (Backend_sparse.apply_basis_map (demoted s) f)

let apply_oracle_add t ~in_wires ~out_wire ~f =
  Metrics.record_oracle ();
  match t with
  | Dense d -> Dense (Backend_dense.apply_oracle_add d ~in_wires ~out_wire ~f)
  | Sparse s -> Sparse (Backend_sparse.apply_oracle_add s ~in_wires ~out_wire ~f)
  | Symbolic s -> Sparse (Backend_sparse.apply_oracle_add (demoted s) ~in_wires ~out_wire ~f)

let probabilities t ~wires =
  match t with
  | Dense d -> Backend_dense.probabilities d ~wires
  | Sparse s -> Backend_sparse.probabilities s ~wires
  | Symbolic s -> Backend_sparse.probabilities (demoted s) ~wires

let measure rng t ~wires =
  Metrics.record_measurement ();
  match t with
  | Dense d ->
      let outcome, post = Backend_dense.measure rng d ~wires in
      (outcome, Dense post)
  | Sparse s ->
      let outcome, post = Backend_sparse.measure rng s ~wires in
      (outcome, Sparse post)
  | Symbolic s ->
      if Backend_symbolic.can_measure s ~wires then begin
        let outcome, post = Backend_symbolic.measure rng s ~wires in
        (outcome, Symbolic post)
      end
      else
        let outcome, post = Backend_sparse.measure rng (demoted s) ~wires in
        (outcome, Sparse post)

let measure_all rng t =
  let outcome, _ = measure rng t ~wires:(List.init (num_wires t) (fun i -> i)) in
  outcome

let norm = function
  | Dense d -> Backend_dense.norm d
  | Sparse s -> Backend_sparse.norm s
  | Symbolic s -> Backend_symbolic.norm s

let digest = function
  | Dense d -> Backend_dense.digest d
  | Sparse s -> Backend_sparse.digest s
  | Symbolic _ -> invalid_arg "State.digest: symbolic states have no amplitude planes"

let approx_equal ?(eps = 1e-9) a b =
  Backend.dims_equal (dims a) (dims b)
  &&
  match (a, b) with
  | Dense x, Dense y -> Backend_dense.approx_equal ~eps x y
  | Sparse x, Sparse y -> Backend_sparse.approx_equal ~eps x y
  | Symbolic x, Symbolic y
    when (not (Backend_symbolic.has_pending x)) && not (Backend_symbolic.has_pending y) ->
      Backend_symbolic.approx_equal ~eps x y
  | _ ->
      (* Cross-backend: compare over the union of supports.  The dense
         side iterates its nonzeros (it is under the cap by
         construction), so this stays linear in materialised data. *)
      let ok = ref true in
      iter_nonzero a (fun i z -> if not (Cx.approx_equal ~eps z (amp_at b i)) then ok := false);
      iter_nonzero b (fun i z -> if not (Cx.approx_equal ~eps z (amp_at a i)) then ok := false);
      !ok

let pp fmt = function
  | Dense d -> Backend_dense.pp fmt d
  | Sparse s -> Backend_sparse.pp fmt s
  | Symbolic s -> Backend_symbolic.pp fmt s
