(** Sparse state-vector backend: the nonzero amplitudes on a sorted
    segment — three parallel flat arrays (basis indices, strictly
    increasing, plus unboxed re/im float planes).  Construction goes
    through a builder that batches insertions in a small unsorted
    buffer and merge-compacts it into the segment when it outgrows a
    fixed fraction of it (each compaction is recorded in the {!Metrics}
    ledger).  No boxed [Complex.t] and no hashtable anywhere in the hot
    loops.

    Time and memory scale with the support size (times the local fibre
    dimension for gate application), not with [prod dims], so registers
    beyond {!Backend.dense_cap} are simulable whenever the computation
    keeps the state sparse — which is exactly the shape of the paper's
    workloads: coset states [|xH>] have support [|H|], and their group
    Fourier transforms are supported on the [|G|/|H|]-point annihilator.

    The kernels run on the {!Parallel} domain pool under the same
    determinism contract as the dense backend — bit-for-bit identical
    results at every job count.  Fibre gather/apply and relabelling
    emit per-chunk output runs concatenated in chunk order; sortedness
    is restored with {!Parallel.sort_perm} under total orders; norm²,
    probabilities and measurement are index-ordered chunk reductions
    (the old hashtable backend summed floats in iteration order, which
    was not schedule-invariant).

    Amplitudes with modulus at most the pruning epsilon are dropped
    after each unitary, so destructive interference actually shrinks
    the segment.  The epsilon is {e per state}: fixed at construction
    (from the optional [?prune_eps] argument, else the session default
    set by {!set_prune_epsilon}, initially [1e-12]) and carried through
    every derived state, so changing the default mid-session never
    contaminates states already built.

    The operations implement {!Backend.S} (modulo the optional
    [?prune_eps] on constructors); the equivalence test suite checks
    them against {!Backend_dense} amplitude-by-amplitude on random
    circuits, and against the retained hashtable baseline
    ({!Backend_htbl}).  Work statistics (populated fibre counts, peak
    support, pruned amplitudes, compactions) are recorded in the
    {!Metrics} ledger. *)

type t

val create : ?prune_eps:float -> int array -> t
val of_basis : ?prune_eps:float -> int array -> int array -> t
val of_amplitudes : ?prune_eps:float -> int array -> Linalg.Cvec.t -> t
val of_support : ?prune_eps:float -> int array -> (int array * Linalg.Cx.t) list -> t

val of_indices : ?prune_eps:float -> int array -> int array -> t
(** [of_indices dims idxs] is the uniform superposition over the given
    {e encoded} basis indices, which must be strictly increasing and in
    range — the segment is adopted directly with no sort, no builder
    pass and no hashing, so building a coset state from a pre-bucketed
    index list costs O(|coset|).
    @raise Invalid_argument on an empty, unsorted or out-of-range
    index array. *)

val uniform : ?prune_eps:float -> int array -> t
val dims : t -> int array
val num_wires : t -> int
val total_dim : t -> int
val support_size : t -> int
val amplitudes : t -> Linalg.Cvec.t
val amp_at : t -> int -> Linalg.Cx.t

val iter_nonzero : t -> (int -> Linalg.Cx.t -> unit) -> unit
(** Visits entries in increasing basis-index order. *)

val tensor : t -> t -> t
(** The product carries the left operand's pruning epsilon. *)

val apply_wires : t -> wires:int list -> Linalg.Cmat.t -> t
val apply_dft : t -> wire:int -> inverse:bool -> t
val apply_basis_map : t -> (int array -> int array) -> t
val apply_oracle_add : t -> in_wires:int list -> out_wire:int -> f:(int array -> int) -> t
val probabilities : t -> wires:int list -> float array
val measure : Random.State.t -> t -> wires:int list -> int array * t
val norm : t -> float

val set_prune_epsilon : float -> unit
(** Set the session default epsilon used by constructors when
    [?prune_eps] is omitted.  Affects only states constructed
    afterwards.
    @raise Invalid_argument on a negative epsilon. *)

val prune_eps : unit -> float
(** The current session default. *)

val prune_eps_of : t -> float
(** The epsilon this particular state carries. *)

val digest : t -> string
(** {!Backend.digest_planes} of the sorted segment: indices and
    amplitude planes. *)

val approx_equal : ?eps:float -> t -> t -> bool
val pp : Format.formatter -> t -> unit
(** Prints the nonzero entries in index order (intended for small
    supports). *)
