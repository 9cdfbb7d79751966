type 'a t = {
  group : 'a Group.t;
  basis : 'a array;
  dims : int array;
  to_exponents : 'a -> int array;
  of_exponents : int array -> 'a;
}

let of_exponents_in (g : 'a Group.t) basis e =
  let acc = ref g.Group.id in
  Array.iteri (fun i ei -> acc := g.Group.mul !acc (Group.pow g basis.(i) ei)) e;
  !acc

(* Basis of the Abelian group [g], grown one cyclic factor at a time
   from the p-parts of its generators (constructive basis theorem).
   [span] maps each element of S = <basis> to itself and its exponents
   over the basis as it stood when the element joined (later
   coordinates are 0); it is the lifting oracle while S grows and, once
   S = G, the [to_exponents] table, so G is enumerated exactly once. *)
let decompose_gens (g : 'a Group.t) =
  let span = Hashtbl.create 64 in
  Hashtbl.replace span (g.Group.repr g.Group.id) (g.Group.id, [||]);
  let basis = ref [||] and dims = ref [||] in
  (* S := S x <x>, for x of order q with <x> meeting S trivially. *)
  let extend x q =
    let t = Array.length !basis in
    if Hashtbl.length span * q > Group.max_enumeration then
      invalid_arg "Abelian.decompose: group exceeds Group.max_enumeration";
    List.iter
      (fun (s, e) ->
        let acc = ref s in
        for i = 1 to q - 1 do
          acc := g.Group.mul !acc x;
          let e' = Array.make (t + 1) 0 in
          Array.blit e 0 e' 0 (Array.length e);
          e'.(t) <- i;
          Hashtbl.replace span (g.Group.repr !acc) (!acc, e')
        done)
      (Hashtbl.fold (fun _ v acc -> v :: acc) span []);
    basis := Array.append !basis [| x |];
    dims := Array.append !dims [| q |];
    if Hashtbl.length span <> Array.fold_left ( * ) 1 !dims then
      invalid_arg "Abelian.decompose: internal: basis is not independent"
  in
  (* Order p^k of [c] modulo S, with the exponents of c^(p^k) in S. *)
  let order_mod_span p c =
    let rec go q y =
      match Hashtbl.find_opt span (g.Group.repr y) with
      | Some (_, e) -> (q, e)
      | None -> go (q * p) (Group.pow g y p)
    in
    go 1 c
  in
  (* In an Abelian p-group some candidate x reaches the largest order
     q = p^k modulo S, which forces every exponent m_j of x^q to be
     divisible by q; x * prod b_j^(-m_j/q) then has order q and meets S
     trivially. *)
  let rec grow p cands =
    let live =
      List.filter_map
        (fun c ->
          let q, e = order_mod_span p c in
          if q > 1 then Some (c, q, e) else None)
        cands
    in
    match live with
    | [] -> ()
    | first :: _ ->
        let x, q, m =
          List.fold_left (fun ((_, bq, _) as b) ((_, q, _) as c) -> if q > bq then c else b) first live
        in
        let w =
          Array.map
            (fun mj ->
              if mj mod q <> 0 then invalid_arg "Abelian.decompose: internal: lift failed";
              -(mj / q))
            m
        in
        extend (g.Group.mul x (of_exponents_in g !basis w)) q;
        grow p (List.map (fun (c, _, _) -> c) live)
  in
  let parts =
    List.concat_map
      (fun x ->
        let n = Group.element_order g x in
        List.map
          (fun (p, a) -> (p, Group.pow g x (n / Numtheory.Arith.pow p a)))
          (Numtheory.Primes.factorize n))
      g.Group.generators
  in
  List.iter
    (fun p -> grow p (List.filter_map (fun (p', c) -> if p' = p then Some c else None) parts))
    (List.sort_uniq Int.compare (List.map fst parts));
  let basis = !basis and dims = !dims in
  let r = Array.length dims in
  let to_exponents x =
    match Hashtbl.find_opt span (g.Group.repr x) with
    | Some (_, e) -> Array.init r (fun i -> if i < Array.length e then e.(i) else 0)
    | None -> invalid_arg "Abelian.to_exponents: element not in group"
  in
  { group = g; basis; dims; to_exponents; of_exponents = of_exponents_in g basis }

let decompose g =
  if not (Group.is_abelian g) then invalid_arg "Abelian.decompose: not Abelian";
  decompose_gens g

let decompose_subgroup g gens =
  let sub = Group.subgroup g gens in
  if not (Group.is_abelian sub) then
    invalid_arg "Abelian.decompose_subgroup: generators do not commute";
  decompose_gens sub

let order t = Array.fold_left ( * ) 1 t.dims
