(* The seeded request streams of the two service workloads.

   A stream is a sequence of {e decks}: each deck is a fixed multiset
   of request slots, shuffled by the seed, and a run measures whole
   decks.  So every run, whatever its seed, sends the same mix of
   routes, counts and solves; the seed picks the hidden subgroups
   where that leaves the cost profile alone, the order of requests,
   their sampling seeds and the popularity order. *)

type stream = {
  oracles : Planted.t array;
  next : unit -> Serve.op;
  boundary : unit -> bool;  (** the next op starts a new deck *)
}

(* A stream dealing decks made by [deal ()] one op at a time. *)
let of_decks oracles deal =
  let deck = ref [] in
  let next () =
    if !deck = [] then deck := deal ();
    match !deck with
    | op :: rest ->
        deck := rest;
        op
    | [] -> invalid_arg "Traffic: empty deck"
  in
  { oracles; next; boundary = (fun () -> !deck = []) }

let route (inst : Planted.t) = Option.value ~default:"symbolic" inst.backend

let sample_op (inst : Planted.t) ~count ~seed =
  {
    Serve.request = (fun ~id -> Planted.sample_request ~id ~seed ~count inst);
    check = Checks.check_sample ~dims:inst.dims ~moduli:inst.moduli ~count;
    solve = false;
    kind = "sample/" ^ route inst;
  }

let solve_op (inst : Planted.t) ~seed =
  {
    Serve.request = (fun ~id -> Planted.solve_request ~id ~seed inst);
    check = Checks.check_solve ~dims:inst.dims ~moduli:inst.moduli;
    solve = true;
    kind = "solve/" ^ route inst;
  }

(* ---- serve-mixed ---- *)

(* Dense wires include non-powers of two (Bluestein); sparse groups
   span 2^16..2^19 with both kinds of wire; symbolic groups are
   Z_2^r, r = 100..200, which the daemon routes itself. *)
let mixed_dense =
  [ [| 64; 80 |]; [| 64; 112 |]; [| 128; 96 |]; [| 256; 128 |]; [| 96; 96 |]; [| 32; 32; 24 |];
    [| 160; 64 |] ]

let mixed_sparse =
  [ [| 256; 256 |]; [| 320; 240 |]; [| 512; 512 |]; [| 640; 480 |]; [| 1024; 512 |];
    [| 96; 96; 32 |] ]

let mixed_symbolic = [ 100; 115; 130; 145; 160; 180; 200 ]

(* Draws per sample request, by route. *)
let dense_count = 2
let sparse_count = 3
let symbolic_count = 8

(* The divisor of [d] closest to sqrt d: coset and annihilator are
   then both about sqrt d per wire.  Sparse kernel cost depends on this
   split, so it is fixed rather than seeded. *)
let sqrt_divisor d =
  let r = sqrt (float_of_int d) in
  let off m = Float.abs (log (float_of_int m /. r)) in
  List.fold_left (fun best m -> if off m < off best then m else best) 1 (Planted.divisors d)

(* One deck: a sample request on every oracle, one solve on a small
   dense oracle and one on a small symbolic oracle (2 of 22 ops). *)
let mixed rng =
  let dense =
    List.map
      (fun dims ->
        { Planted.dims; moduli = Array.map (Planted.mid_divisor rng) dims; backend = Some "dense" })
      mixed_dense
  in
  let sparse =
    List.map
      (fun dims -> { Planted.dims; moduli = Array.map sqrt_divisor dims; backend = Some "sparse" })
      mixed_sparse
  in
  let symbolic =
    List.map
      (fun r ->
        let half = Array.init r (fun i -> if i < r / 2 then 2 else 1) in
        { Planted.dims = Array.make r 2; moduli = Planted.shuffle rng half; backend = None })
      mixed_symbolic
  in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let seed () = Random.State.bits rng in
  let deal () =
    let samples count = List.map (fun inst -> sample_op inst ~count ~seed:(seed ())) in
    samples dense_count dense @ samples sparse_count sparse @ samples symbolic_count symbolic
    @ [ solve_op (pick [ List.nth dense 0; List.nth dense 1 ]) ~seed:(seed ());
        solve_op (pick [ List.nth symbolic 0; List.nth symbolic 1 ]) ~seed:(seed ()) ]
    |> Array.of_list |> Planted.shuffle rng |> Array.to_list
  in
  of_decks (Array.of_list (dense @ sparse @ symbolic)) deal

(* ---- serve-churn ---- *)

(* |A| = 2^20 on four power-of-two wires Z_1024 x Z_2^a x Z_2^b x Z_2^c
   (a + b + c = 10), hiding H = Z_1024 x 0 x 0 x 0.  Every oracle then
   costs the same: an O(|A|) prep on a miss, and a cheap draw (a coset
   of 1024 points whose Fourier support has 1024 points), so a cache
   miss, i.e. prep plus insert and eviction, dominates. *)
let churn_shapes =
  List.concat_map
    (fun a ->
      List.filter_map
        (fun b ->
          let c = 10 - a - b in
          if c >= 1 then Some [| 1024; 1 lsl a; 1 lsl b; 1 lsl c |] else None)
        (List.init 8 (fun b -> b + 1)))
    (List.init 8 (fun a -> a + 1))

let churn_cache_entries = 6
let churn_oracles = 24
let zipf_exponent = 1.0
let churn_deck = 48

(* Copies of rank k in a deck: [churn_deck] split in proportion to the
   Zipf weights (k+1)^-s, largest remainders rounded up. *)
let zipf_copies n =
  let w = Array.init n (fun k -> Float.pow (float_of_int (k + 1)) (-.zipf_exponent)) in
  let total = Array.fold_left ( +. ) 0. w in
  let exact = Array.map (fun x -> x /. total *. float_of_int churn_deck) w in
  let copies = Array.map int_of_float exact in
  let short = churn_deck - Array.fold_left ( + ) 0 copies in
  let remainder k = exact.(k) -. float_of_int copies.(k) in
  List.init n Fun.id
  |> List.sort (fun a b -> Float.compare (remainder b) (remainder a))
  |> List.iteri (fun i k -> if i < short then copies.(k) <- copies.(k) + 1);
  copies

let churn rng =
  let oracles =
    Array.sub (Planted.shuffle rng (Array.of_list churn_shapes)) 0 churn_oracles
    |> Array.map (fun dims ->
           let moduli = Array.mapi (fun i d -> if i = 0 then 1 else d) dims in
           { Planted.dims; moduli; backend = Some "sparse" })
  in
  (* oracles.(k) has popularity rank k.  The order of ranks within a
     deck comes from a fixed stream, not the seed: LRU hits depend on
     that order, and a seed should change which oracles are popular,
     not how often the cache misses. *)
  let copies = zipf_copies (Array.length oracles) in
  let order = Random.State.make [| 0x7a697066 |] in
  let deal () =
    List.init (Array.length oracles) (fun k -> List.init copies.(k) (fun _ -> k))
    |> List.concat |> Array.of_list |> Planted.shuffle order |> Array.to_list
    |> List.map (fun k -> sample_op oracles.(k) ~count:1 ~seed:(Random.State.bits rng))
  in
  of_decks oracles deal
