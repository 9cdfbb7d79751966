type 'a t = {
  name : string;
  mul : 'a -> 'a -> 'a;
  inv : 'a -> 'a;
  id : 'a;
  equal : 'a -> 'a -> bool;
  repr : 'a -> string;
  generators : 'a list;
}

let max_enumeration = 1_000_000

let make ~name ~mul ~inv ~id ~equal ~repr ~generators =
  { name; mul; inv; id; equal; repr; generators }

let pow g x k =
  let rec go acc b k =
    if k = 0 then acc
    else if k land 1 = 1 then go (g.mul acc b) (g.mul b b) (k asr 1)
    else go acc (g.mul b b) (k asr 1)
  in
  if k >= 0 then go g.id x k else go g.id (g.inv x) (-k)

let commutator g x y = g.mul (g.mul x y) (g.mul (g.inv x) (g.inv y))
let conjugate g ~by:x y = g.mul (g.mul x y) (g.inv x)

(* BFS closure of [seeds] under multiplication (on the right) by
   [steps] and their inverses.  Returns elements in BFS order and the
   membership table. *)
let bfs_closure g seeds steps =
  let table : (string, 'a) Hashtbl.t = Hashtbl.create 256 in
  let out = ref [] in
  let queue = Queue.create () in
  let push x =
    let key = g.repr x in
    if not (Hashtbl.mem table key) then begin
      Hashtbl.add table key x;
      out := x :: !out;
      if Hashtbl.length table > max_enumeration then
        invalid_arg "Group: enumeration exceeds max_enumeration";
      Queue.add x queue
    end
  in
  List.iter push seeds;
  let steps = List.concat_map (fun s -> [ s; g.inv s ]) steps in
  while not (Queue.is_empty queue) do
    let x = Queue.pop queue in
    List.iter (fun s -> push (g.mul x s)) steps
  done;
  (List.rev !out, table)

let closure_with_table g gens = bfs_closure g [ g.id ] gens
let elements g = fst (closure_with_table g g.generators)
let order g = List.length (elements g)

let element_order g x =
  let rec go k acc =
    if g.equal acc g.id then k
    else if k >= max_enumeration then invalid_arg "Group: element order exceeds max_enumeration"
    else go (k + 1) (g.mul acc x)
  in
  go 1 x

let closure g xs = fst (closure_with_table g xs)
let closure_set g xs = snd (closure_with_table g xs)
let mem g table x = Hashtbl.mem table (g.repr x)
let subgroup_mem g gens x = mem g (closure_set g gens) x

let normal_closure g xs =
  (* Grow the subgroup; whenever a conjugate of a member by a group
     generator escapes, add it and re-close. *)
  let current = ref (closure g xs) in
  let stable = ref false in
  while not !stable do
    let table = closure_set g !current in
    let escapes =
      List.concat_map
        (fun s ->
          List.filter_map
            (fun x ->
              let c = conjugate g ~by:s x in
              if mem g table c then None else Some c)
            !current)
        g.generators
    in
    if escapes = [] then stable := true
    else current := closure g (!current @ escapes)
  done;
  !current

let is_abelian g =
  List.for_all
    (fun x -> List.for_all (fun y -> g.equal (g.mul x y) (g.mul y x)) g.generators)
    g.generators

let is_normal g h_gens =
  let h = closure_set g h_gens in
  List.for_all
    (fun s -> List.for_all (fun x -> mem g h (conjugate g ~by:s x)) h_gens)
    g.generators

let subgroup_equal g xs ys =
  let tx = closure_set g xs and ty = closure_set g ys in
  Hashtbl.length tx = Hashtbl.length ty
  && Hashtbl.fold (fun _ x acc -> acc && mem g ty x) tx true

let centralizer g xs =
  List.filter
    (fun e -> List.for_all (fun x -> g.equal (g.mul e x) (g.mul x e)) xs)
    (elements g)

let center g = centralizer g g.generators

let normalizer g h_elements =
  let h_table = Hashtbl.create 64 in
  List.iter (fun x -> Hashtbl.replace h_table (g.repr x) ()) h_elements;
  List.filter
    (fun x ->
      List.for_all (fun h -> Hashtbl.mem h_table (g.repr (conjugate g ~by:x h))) h_elements)
    (elements g)

let conjugacy_classes g =
  let all = elements g in
  let assigned = Hashtbl.create 64 in
  List.filter_map
    (fun x ->
      if Hashtbl.mem assigned (g.repr x) then None
      else begin
        let members = Hashtbl.create 8 in
        List.iter
          (fun y ->
            let c = conjugate g ~by:y x in
            let key = g.repr c in
            if not (Hashtbl.mem members key) then Hashtbl.replace members key c)
          all;
        let cls = Hashtbl.fold (fun _ c acc -> c :: acc) members [] in
        List.iter (fun c -> Hashtbl.replace assigned (g.repr c) ()) cls;
        Some cls
      end)
    all

let is_simple g =
  let all = elements g in
  let n = List.length all in
  n > 1
  && List.for_all
       (fun x ->
         if g.equal x g.id then true
         else List.length (normal_closure g [ x ]) = n)
       all

let commutator_subgroup g =
  let comms =
    List.concat_map (fun x -> List.map (fun y -> commutator g x y) g.generators) g.generators
  in
  normal_closure g comms

let subgroup ?name g gens =
  let name = match name with Some n -> n | None -> g.name ^ "-subgroup" in
  { g with name; generators = gens }

let derived_series g =
  let rec go current acc =
    let sub = subgroup g current in
    let next = commutator_subgroup sub in
    let cur_elems = closure g current in
    if List.length next = List.length cur_elems then List.rev (cur_elems :: acc)
    else go next (cur_elems :: acc)
  in
  go g.generators []

let is_solvable g =
  match List.rev (derived_series g) with
  | last :: _ -> List.length last = 1
  | [] -> assert false

let coset_reps g h_elements =
  let h_table = Hashtbl.create 64 in
  List.iter (fun h -> Hashtbl.replace h_table (g.repr h) ()) h_elements;
  let seen = Hashtbl.create 64 in
  let reps = ref [] in
  List.iter
    (fun x ->
      (* coset key: representative-independent label = the repr-least
         element of x H *)
      let label =
        List.fold_left
          (fun best h ->
            let k = g.repr (g.mul x h) in
            match best with Some b when b <= k -> best | _ -> Some k)
          None h_elements
      in
      match label with
      | None -> ()
      | Some l ->
          if not (Hashtbl.mem seen l) then begin
            Hashtbl.add seen l ();
            reps := x :: !reps
          end)
    (elements g);
  let reps = List.rev !reps in
  (* put the identity's coset first, represented by the identity *)
  let in_h x = Hashtbl.mem h_table (g.repr x) in
  g.id :: List.filter (fun r -> not (in_h r)) reps

(* Canonical projection onto coset representatives (BFS-least member
   of each coset). *)
let quotient_projection g n_elements =
  let canon : (string, 'a) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun x ->
      let key = g.repr x in
      if not (Hashtbl.mem canon key) then begin
        (* x is the BFS-least member of its coset: label the whole coset *)
        List.iter
          (fun n ->
            let k = g.repr (g.mul x n) in
            if not (Hashtbl.mem canon k) then Hashtbl.add canon k x)
          n_elements
      end)
    (elements g);
  fun x -> Hashtbl.find canon (g.repr x)

let quotient_map g n_elements = quotient_projection g n_elements

let quotient g n_elements =
  let proj = quotient_projection g n_elements in
  {
    name = g.name ^ "/N";
    mul = (fun a b -> proj (g.mul a b));
    inv = (fun a -> proj (g.inv a));
    id = proj g.id;
    equal = (fun a b -> g.equal (proj a) (proj b));
    repr = (fun a -> g.repr (proj a));
    generators = List.map proj g.generators;
  }

let direct_product ga gb =
  {
    name = ga.name ^ "x" ^ gb.name;
    mul = (fun (a1, b1) (a2, b2) -> (ga.mul a1 a2, gb.mul b1 b2));
    inv = (fun (a, b) -> (ga.inv a, gb.inv b));
    id = (ga.id, gb.id);
    equal = (fun (a1, b1) (a2, b2) -> ga.equal a1 a2 && gb.equal b1 b2);
    repr = (fun (a, b) -> ga.repr a ^ "|" ^ gb.repr b);
    generators =
      List.map (fun a -> (a, gb.id)) ga.generators
      @ List.map (fun b -> (ga.id, b)) gb.generators;
  }

let abelianization g = quotient g (commutator_subgroup g)
let is_perfect g = List.length (commutator_subgroup g) = order g

let sylow_subgroup g p =
  let n = order g in
  if n mod p <> 0 then invalid_arg "Group.sylow_subgroup: p does not divide |G|";
  let p_part =
    let rec go n acc = if n mod p = 0 then go (n / p) (acc * p) else acc in
    go n 1
  in
  let all = elements g in
  (* Normaliser-growing: while |P| < p_part, some element of
     N_G(P) \ P has p-power order modulo P; adjoin its suitable power. *)
  let current = ref [ g.id ] in
  while List.length !current < p_part do
    let table = closure_set g !current in
    let normalizes x =
      List.for_all (fun h -> mem g table (conjugate g ~by:x h)) !current
    in
    let extension =
      List.find_map
        (fun x ->
          if mem g table x || not (normalizes x) then None
          else begin
            (* order of xP in N(P)/P: find the least k with x^k in P *)
            let rec coset_order k acc =
              if mem g table acc then k else coset_order (k + 1) (g.mul acc x)
            in
            let m = coset_order 1 x in
            if m mod p = 0 then Some (pow g x (m / p)) else None
          end)
        all
    in
    match extension with
    | Some x -> current := closure g (x :: !current)
    | None -> invalid_arg "Group.sylow_subgroup: internal: no extension found"
  done;
  !current

let composition_series g =
  if not (is_solvable g) then invalid_arg "Group.composition_series: not solvable";
  let series = derived_series g in
  (* Refine each abelian step M > N into prime-order steps.  Every
     intermediate subgroup containing N is normal in M because M/N is
     abelian, so any refinement is a valid composition series
     segment. *)
  let refine m_elems n_elems =
    let n_table = Hashtbl.create 64 in
    List.iter (fun x -> Hashtbl.replace n_table (g.repr x) ()) n_elems;
    let chain = ref [ n_elems ] in
    let current = ref n_elems in
    let current_table = ref (Hashtbl.copy n_table) in
    while List.length !current < List.length m_elems do
      let x = List.find (fun x -> not (Hashtbl.mem !current_table (g.repr x))) m_elems in
      (* order of x modulo current *)
      let rec coset_order k acc =
        if Hashtbl.mem !current_table (g.repr acc) then k else coset_order (k + 1) (g.mul acc x)
      in
      let m = coset_order 1 x in
      let p = List.hd (Numtheory.Primes.prime_divisors m) in
      let x' = pow g x (m / p) in
      let bigger = closure g (x' :: !current) in
      current := bigger;
      let t = Hashtbl.create 64 in
      List.iter (fun e -> Hashtbl.replace t (g.repr e) ()) bigger;
      current_table := t;
      chain := bigger :: !chain
    done;
    !chain (* descending from m_elems' subgroup ... n_elems *)
  in
  let rec walk = function
    | m :: (n :: _ as rest) ->
        let seg = refine m n in
        (* seg is descending M = seg_head ... N; drop its last (N) to
           avoid duplication with the next segment's head *)
        let seg = match List.rev (List.tl (List.rev seg)) with [] -> [] | s -> s in
        seg @ walk rest
    | [ last ] -> [ last ]
    | [] -> []
  in
  walk series

let composition_factors g =
  let series = composition_series g in
  let rec go = function
    | a :: (b :: _ as rest) -> (List.length a / List.length b) :: go rest
    | _ -> []
  in
  go series

let random_element rng g =
  let all = Array.of_list (elements g) in
  all.(Random.State.int rng (Array.length all))

let random_subgroup_gens rng ?(max_gens = 3) g =
  let k = 1 + Random.State.int rng max_gens in
  List.init k (fun _ -> random_element rng g)

let exponent_of g =
  List.fold_left (fun acc x -> Numtheory.Arith.lcm acc (element_order g x)) 1 (elements g)
