type choice = Dense | Sparse | Symbolic | Auto

let choice_of_string s =
  match String.lowercase_ascii s with
  | "dense" -> Some Dense
  | "sparse" -> Some Sparse
  | "symbolic" -> Some Symbolic
  | "auto" -> Some Auto
  | _ -> None

let choice_to_string = function
  | Dense -> "dense"
  | Sparse -> "sparse"
  | Symbolic -> "symbolic"
  | Auto -> "auto"

(* One home for every size-cap constant in the simulator.  Each cap
   bounds a different resource, so they are deliberately distinct
   numbers; keeping them side by side (with the consumers named) stops
   the docs and the code drifting apart again. *)
module Caps = struct
  let dense_state = 1 lsl 24
  let coset_dense = 1 lsl 22
  let coset_sparse = 1 lsl 26
  let symbolic_materialise = 1 lsl 20
end

let dense_cap = Caps.dense_state

let env_default =
  lazy
    (match Sys.getenv_opt "HSP_BACKEND" with
    | None -> Auto
    | Some s -> (
        match choice_of_string s with
        | Some c -> c
        | None -> invalid_arg (Printf.sprintf "HSP_BACKEND: unknown backend %S" s)))

let current = Atomic.make None
let default () = match Atomic.get current with Some c -> c | None -> Lazy.force env_default
let set_default c = Atomic.set current (Some c)

let resolve ?backend ~total () =
  match (match backend with Some c -> c | None -> default ()) with
  | Dense -> Dense
  | Sparse -> Sparse
  | Symbolic -> Symbolic
  | Auto -> if total <= dense_cap then Dense else Sparse

let total_of dims =
  Array.fold_left
    (fun acc d ->
      if d < 1 then invalid_arg "State: wire dimension < 1";
      if acc > max_int / d then invalid_arg "State: register dimension overflows";
      acc * d)
    1 dims

let total_of_opt dims =
  Array.fold_left
    (fun acc d ->
      if d < 1 then invalid_arg "State: wire dimension < 1";
      match acc with Some a when a <= max_int / d -> Some (a * d) | _ -> None)
    (Some 1) dims

let encode dims x =
  if Array.length x <> Array.length dims then invalid_arg "State.encode: arity mismatch";
  let idx = ref 0 in
  Array.iteri
    (fun i xi ->
      if xi < 0 || xi >= dims.(i) then invalid_arg "State.encode: value out of range";
      idx := (!idx * dims.(i)) + xi)
    x;
  !idx

let decode dims idx =
  let n = Array.length dims in
  let x = Array.make n 0 in
  let rem = ref idx in
  for i = n - 1 downto 0 do
    x.(i) <- !rem mod dims.(i);
    rem := !rem / dims.(i)
  done;
  x

let dims_equal a b =
  Array.length a = Array.length b
  &&
  let ok = ref true in
  Array.iteri (fun i d -> if not (Int.equal d b.(i)) then ok := false) a;
  !ok

let strides dims =
  let n = Array.length dims in
  let s = Array.make n 1 in
  for i = n - 2 downto 0 do
    s.(i) <- s.(i + 1) * dims.(i + 1)
  done;
  s

let sample_discrete rng probs =
  if Array.length probs = 0 then invalid_arg "Backend.sample_discrete: empty distribution";
  let r = Random.State.float rng 1.0 in
  (* Floating-point rounding can leave sum(probs) < r; the fallback must
     be the last index carrying mass, never a zero-probability outcome. *)
  let acc = ref 0.0 and chosen = ref (-1) and last_nonzero = ref (-1) in
  (try
     Array.iteri
       (fun i p ->
         if p > 0.0 then last_nonzero := i;
         acc := !acc +. p;
         if r < !acc then begin
           chosen := i;
           raise Exit
         end)
       probs
   with Exit -> ());
  if !chosen >= 0 then !chosen
  else if !last_nonzero >= 0 then !last_nonzero
  else invalid_arg "Backend.sample_discrete: zero distribution"

(* Two-level MD5 so the scratch stays bounded at any register size: one
   digest per chunk of entries, then one over the header and the chunk
   digests. *)
let digest_planes ~tag ~dims ?idx ~re ~im () =
  let n = Array.length re in
  let width = match idx with None -> 16 | Some _ -> 24 in
  let chunk = 1 lsl 14 in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf tag;
  Buffer.add_int64_le buf (Int64.of_int (Array.length dims));
  Array.iter (fun d -> Buffer.add_int64_le buf (Int64.of_int d)) dims;
  Buffer.add_int64_le buf (Int64.of_int n);
  let scratch = Bytes.create (chunk * width) in
  let lo = ref 0 in
  while !lo < n do
    let len = min chunk (n - !lo) in
    for k = 0 to len - 1 do
      let i = !lo + k and off = k * width in
      Bytes.set_int64_le scratch off (Int64.bits_of_float re.(i));
      Bytes.set_int64_le scratch (off + 8) (Int64.bits_of_float im.(i));
      match idx with
      | Some ix -> Bytes.set_int64_le scratch (off + 16) (Int64.of_int ix.(i))
      | None -> ()
    done;
    Buffer.add_string buf (Digest.subbytes scratch 0 (len * width));
    lo := !lo + len
  done;
  Digest.to_hex (Digest.string (Buffer.contents buf))

module type CORE = sig
  type t

  val create : int array -> t
  val of_basis : int array -> int array -> t
  val uniform : int array -> t
  val dims : t -> int array
  val num_wires : t -> int
  val support_size : t -> int
  val tensor : t -> t -> t
  val apply_dft : t -> wire:int -> inverse:bool -> t
  val measure : Random.State.t -> t -> wires:int list -> int array * t
  val norm : t -> float
end

module type AMPLITUDES = sig
  type t

  val of_amplitudes : int array -> Linalg.Cvec.t -> t
  val of_support : int array -> (int array * Linalg.Cx.t) list -> t
  val total_dim : t -> int
  val amplitudes : t -> Linalg.Cvec.t
  val amp_at : t -> int -> Linalg.Cx.t
  val iter_nonzero : t -> (int -> Linalg.Cx.t -> unit) -> unit
  val apply_wires : t -> wires:int list -> Linalg.Cmat.t -> t
  val apply_basis_map : t -> (int array -> int array) -> t
  val apply_oracle_add : t -> in_wires:int list -> out_wire:int -> f:(int array -> int) -> t
  val probabilities : t -> wires:int list -> float array
end

module type S = sig
  include CORE
  include AMPLITUDES with type t := t
end
