(** Dense state-vector backend: one contiguous complex array of
    dimension [prod dims], capped at {!Backend.dense_cap}.

    This is the seed simulator, exact and cache-friendly; it remains the
    reference implementation that the sparse backend is validated
    against (see the backend-equivalence test suite).  Satisfies
    {!Backend.S}, plus dense-only extras ({!apply_wire}, {!approx_equal},
    {!pp}) used by the {!State} dispatcher. *)

include Backend.S

val of_indices : int array -> int array -> t
(** Uniform superposition over the given {e encoded} basis indices
    (strictly increasing, in range) — the dense mirror of
    [Backend_sparse.of_indices].
    @raise Invalid_argument on an empty, unsorted or out-of-range
    index array. *)

val apply_wire : t -> wire:int -> Linalg.Cmat.t -> t

val run_plan : Circuit_plan.t -> t -> t
(** Execute a compiled circuit plan in place over Bigarray staging
    planes (one copy in, one out; see {!Circuit_plan.run_planes}).  The
    input state is untouched.  The caller checks that the state is a
    register of [plan.num_qubits] qubits ([Circuit.run] does).
    @raise Invalid_argument on a plane-length mismatch. *)

val digest : t -> string
(** {!Backend.digest_planes} of the amplitude planes. *)

val approx_equal : ?eps:float -> t -> t -> bool
val pp : Format.formatter -> t -> unit
