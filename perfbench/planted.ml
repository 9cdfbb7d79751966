(* Planted instances as the daemon's protocol names them: the group
   [A = Z_{d_1} x ... x Z_{d_r}], the hidden subgroup
   [H = prod m_i Z_{d_i}], and an optional explicit backend. *)

open Hsp_service

type t = {
  dims : int array;
  moduli : int array;
  backend : string option;  (** [None]: the daemon routes it *)
}

let size t = Array.fold_left ( * ) 1 t.dims

(* Compact wire form: runs of equal entries become "b^k" strings. *)
let wire a =
  let rec go acc = function
    | [] -> List.rev acc
    | x :: rest ->
        let rec count n = function y :: ys when Int.equal y x -> count (n + 1) ys | ys -> (n, ys) in
        let n, rest = count 1 rest in
        go ((if n = 1 then Jsonv.Int x else Jsonv.String (Printf.sprintf "%d^%d" x n)) :: acc) rest
  in
  Jsonv.List (go [] (Array.to_list a))

let fields t =
  [ ("dims", wire t.dims); ("moduli", wire t.moduli) ]
  @ match t.backend with Some b -> [ ("backend", Jsonv.String b) ] | None -> []

let sample_request ~id ~seed ~count t =
  Jsonv.Obj
    (("op", Jsonv.String "sample") :: ("id", Jsonv.Int id) :: ("count", Jsonv.Int count)
    :: ("seed", Jsonv.Int seed) :: fields t)

let solve_request ~id ~seed t =
  Jsonv.Obj
    (("op", Jsonv.String "solve") :: ("id", Jsonv.Int id) :: ("seed", Jsonv.Int seed) :: fields t)

let stats_request ~id = Jsonv.Obj [ ("op", Jsonv.String "stats"); ("id", Jsonv.Int id) ]
let shutdown_request ~id = Jsonv.Obj [ ("op", Jsonv.String "shutdown"); ("id", Jsonv.Int id) ]

(* ---- seeded moduli ---- *)

let divisors d = List.filter (fun m -> d mod m = 0) (List.init d (fun i -> i + 1))

(* A divisor of [d] drawn from the middle of its range (d^(1/4) to
   d^(3/4)), so neither the coset nor the annihilator collapses. *)
let mid_divisor rng d =
  let lo = Float.pow (float_of_int d) 0.25 and hi = Float.pow (float_of_int d) 0.75 in
  let ds = List.filter (fun m -> float_of_int m >= lo && float_of_int m <= hi) (divisors d) in
  let ds = if ds = [] then divisors d else ds in
  List.nth ds (Random.State.int rng (List.length ds))

let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a
