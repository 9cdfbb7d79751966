(** Qubit circuits.

    A circuit is a straight-line sequence of gate applications on a
    register of qubits.  The QFT builder emits the textbook Hadamard /
    controlled-rotation / swap decomposition, optionally truncating
    small rotations (the *approximate* QFT the paper relies on via
    Kitaev's construction); tests check it against the dense DFT
    matrix.

    Ops are stored latest-first internally so building a circuit is
    linear in its length; {!ops} returns them in application order.
    {!run} executes a dense state through the circuit's compiled plan
    ({!Circuit_plan}) and any other state gate by gate. *)

type op =
  | Gate of Linalg.Cmat.t * int list
      (** Unitary on the listed wires, most significant first. *)

type t

val empty : int -> t
val num_qubits : t -> int

val ops : t -> op list
(** The gate sequence in application order. *)

val of_ops : int -> op list -> t
(** [of_ops n ops] wraps a raw op list {e without} the validation
    {!gate} performs — for fixtures exercising [Analysis.Circuit_check]
    on malformed circuits.  Regular construction goes through {!gate}. *)

val gate : t -> Linalg.Cmat.t -> int list -> t
(** Append a gate (applied after the existing ones).
    @raise Invalid_argument on an empty wire list, a wire outside
    [0, num_qubits), duplicate wires, or a matrix whose dimension is
    not [2^|wires|] — the same conditions [Analysis.Circuit_check]
    enforces statically. *)

val seq : t -> t -> t
(** [seq a b] runs [a] then [b]; both must have the same arity. *)

val run : t -> State.t -> State.t
(** A dense state runs through the compiled plan ({!compile},
    {!State.run_plan}); sparse and symbolic states run gate by gate
    through {!State.apply_wires}.  The plan is compiled on every call,
    whatever the backend.
    @raise Invalid_argument if the state is not a register of
    [num_qubits] qubits. *)

val compile : t -> Circuit_plan.t
(** The execution plan {!run} uses for a dense state. *)

val fingerprint : t -> string
(** Hex digest of the exact circuit structure (wires and IEEE bit
    patterns of every matrix entry); keys the service's plan cache. *)

val to_matrix : t -> Linalg.Cmat.t
(** Dense unitary of the whole circuit (exponential; small circuits
    only). *)

val gate_count : t -> int

val qft : ?approx_threshold:int -> int -> t
(** [qft n] is the quantum Fourier transform on [n] qubits,
    matching [Linalg.Cmat.dft (2^n)] exactly under the big-endian
    index convention of {!State}.  [approx_threshold] drops controlled
    rotations [rk k] with [k > approx_threshold] (Coppersmith's
    approximate QFT); default keeps all. *)

val inverse : t -> t
(** Reverses the circuit, inverting each gate (by adjoint). *)
