(* Tests for the group-theory substrate: concrete families, generic
   algorithms, Abelian decomposition, presentations, Todd-Coxeter. *)

open Groups

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let rng () = Random.State.make [| 0xfeed |]

(* Group axioms on a sample of elements. *)
let check_axioms g sample =
  List.iter
    (fun x ->
      checkb "left id" true (g.Group.equal (g.Group.mul g.Group.id x) x);
      checkb "right id" true (g.Group.equal (g.Group.mul x g.Group.id) x);
      checkb "inverse" true (g.Group.equal (g.Group.mul x (g.Group.inv x)) g.Group.id);
      List.iter
        (fun y ->
          List.iter
            (fun z ->
              checkb "assoc" true
                (g.Group.equal
                   (g.Group.mul (g.Group.mul x y) z)
                   (g.Group.mul x (g.Group.mul y z))))
            sample)
        sample)
    sample

let sample_of g k =
  let r = rng () in
  List.init k (fun _ -> Group.random_element r g)

(* ------------------------------------------------------------------ *)
(* Concrete families                                                  *)
(* ------------------------------------------------------------------ *)

let test_perm_basics () =
  let p = Perm.of_cycles 5 [ [ 0; 1; 2 ] ] in
  checki "image" 1 p.(0);
  checki "parity 3cycle" 0 (Perm.parity p);
  checki "parity transposition" 1 (Perm.parity (Perm.of_cycles 5 [ [ 0; 1 ] ]));
  Alcotest.(check (list (list int))) "to_cycles" [ [ 0; 1; 2 ] ] (Perm.to_cycles p);
  checkb "inverse" true (Perm.compose p (Perm.inverse p) = Perm.identity 5)

let test_perm_compose_semantics () =
  let q = Perm.of_cycles 3 [ [ 0; 1 ] ] and r = Perm.of_cycles 3 [ [ 1; 2 ] ] in
  (* (compose q r)(i) = q(r(i)) *)
  for i = 0 to 2 do
    checki "q.r" q.(r.(i)) (Perm.compose q r).(i)
  done

let test_symmetric_orders () =
  checki "S_3" 6 (Group.order (Perm.symmetric 3));
  checki "S_4" 24 (Group.order (Perm.symmetric 4));
  checki "S_5" 120 (Group.order (Perm.symmetric 5));
  checki "A_4" 12 (Group.order (Perm.alternating 4));
  checki "A_5" 60 (Group.order (Perm.alternating 5))

let test_perm_axioms () =
  let g = Perm.symmetric 5 in
  check_axioms g (sample_of g 4)

let test_cyclic_orders () =
  checki "Z_12" 12 (Group.order (Cyclic.zn 12));
  checki "Z_2^5" 32 (Group.order (Cyclic.boolean_cube 5));
  checki "Z4xZ6" 24 (Group.order (Cyclic.product [| 4; 6 |]))

let test_cyclic_axioms () =
  let g = Cyclic.product [| 4; 3; 2 |] in
  check_axioms g (sample_of g 4);
  checkb "abelian" true (Group.is_abelian g)

let test_cyclic_encoding () =
  let dims = [| 4; 3 |] in
  for k = 0 to 11 do
    checki "roundtrip" k (Cyclic.to_int dims (Cyclic.of_int dims k))
  done

let test_dihedral_structure () =
  let n = 9 in
  let g = Dihedral.group n in
  checki "order" (2 * n) (Group.order g);
  check_axioms g (sample_of g 4);
  checkb "nonabelian" false (Group.is_abelian g);
  (* t s t^-1 = s^-1 *)
  let s = Dihedral.rotation n 1 and t = Dihedral.reflection n 0 in
  checkb "conjugation relation" true
    (g.Group.equal (Group.conjugate g ~by:t s) (g.Group.inv s));
  (* reflections are involutions *)
  for r = 0 to n - 1 do
    checki "reflection order" 2 (Group.element_order g (Dihedral.reflection n r))
  done;
  (* rotation subgroup is normal *)
  checkb "rotations normal" true (Group.is_normal g (Dihedral.rotation_subgroup_gens n 1));
  (* a reflection subgroup is not normal (n > 2) *)
  checkb "reflection not normal" false (Group.is_normal g [ Dihedral.reflection n 0 ])

let test_matrix_group_gl () =
  let p = 3 in
  let a = [| [| 1; 1 |]; [| 0; 1 |] |]
  and b = [| [| 0; 2 |]; [| 1; 0 |] |]
  and c = [| [| 2; 0 |]; [| 0; 1 |] |] in
  (* a and b generate SL(2,3); c has determinant 2, giving all of GL *)
  let g = Matrix_group.group ~p ~dim:2 [ a; b; c ] in
  check_axioms g (sample_of g 4);
  (* |GL(2,3)| = 48; our generators generate all of it *)
  checki "gl order formula" 48 (Matrix_group.gl_order ~p:3 ~dim:2);
  checki "generated" 48 (Group.order g)

let test_matrix_inverse_random () =
  let r = rng () in
  let p = 5 in
  for _ = 1 to 50 do
    let m = Array.init 3 (fun _ -> Array.init 3 (fun _ -> Random.State.int r p)) in
    if Matrix_group.is_invertible p m then begin
      let mi = Matrix_group.inv p m in
      checkb "m * m^-1 = I" true (Matrix_group.mul p m mi = Matrix_group.identity 3)
    end
  done

let test_matrix_det_multiplicative () =
  let r = rng () in
  let p = 7 in
  for _ = 1 to 50 do
    let m1 = Array.init 2 (fun _ -> Array.init 2 (fun _ -> Random.State.int r p)) in
    let m2 = Array.init 2 (fun _ -> Array.init 2 (fun _ -> Random.State.int r p)) in
    checki "det hom" (Matrix_group.det p m1 * Matrix_group.det p m2 mod p)
      (Matrix_group.det p (Matrix_group.mul p m1 m2))
  done

let test_section6_family () =
  let a = [| [| 0; 1 |]; [| 1; 1 |] |] in
  (* invertible over GF(2); this Fibonacci matrix has order 3 *)
  let g = Matrix_group.section6_group ~p:2 ~a [ [| 1; 0 |]; [| 0; 1 |] ] in
  check_axioms g (sample_of g 3);
  (* N gens are involutions and commute *)
  let ngens = Matrix_group.section6_normal_gens ~p:2 ~k:2 [ [| 1; 0 |]; [| 0; 1 |] ] in
  List.iter (fun n -> checki "involution" 2 (Group.element_order g n)) ngens;
  checkb "N normal" true (Group.is_normal g ngens)

let test_extraspecial_structure () =
  List.iter
    (fun p ->
      let g = Extraspecial.group ~p ~m:1 in
      checki "order p^3" (p * p * p) (Group.order g);
      check_axioms g (sample_of g 3);
      let g' = Group.commutator_subgroup g in
      checki "G' order p" p (List.length g');
      let z = Group.center g in
      checki "center order p" p (List.length z);
      (* extra-special: G' = Z(G) *)
      let g'_set = List.sort compare (List.map g.Group.repr g') in
      let z_set = List.sort compare (List.map g.Group.repr z) in
      checkb "G' = Z" true (g'_set = z_set);
      (* center generator is central *)
      let c = Extraspecial.center_gen ~p ~m:1 in
      checkb "central" true
        (List.for_all
           (fun x -> g.Group.equal (g.Group.mul c x) (g.Group.mul x c))
           g.Group.generators))
    [ 2; 3; 5 ]

let test_extraspecial_tuple_roundtrip () =
  let p = 3 and m = 2 in
  let g = Extraspecial.group ~p ~m in
  List.iter
    (fun x ->
      checkb "roundtrip" true
        (g.Group.equal x (Extraspecial.of_tuple ~p ~m (Extraspecial.to_tuple x))))
    (sample_of g 10)

let test_wreath_structure () =
  let k = 3 in
  let g = Wreath.group k in
  checki "order 2^(2k+1)" 128 (Group.order g);
  check_axioms g (sample_of g 4);
  let base = Wreath.base_gens k in
  checkb "base normal" true (Group.is_normal g base);
  checki "base order" 64 (List.length (Group.closure g base));
  (* swap conjugates the two halves *)
  let s = Wreath.swap_elt k in
  let x = List.nth base 0 in
  let y = Group.conjugate g ~by:s x in
  checkb "swap action" true (g.Group.equal y (List.nth base k))

let test_semidirect_structure () =
  let n = 4 in
  let g = Semidirect.group ~action:(Semidirect.cyclic_action n) ~m:n in
  checki "order" (16 * 4) (Group.order g);
  check_axioms g (sample_of g 4);
  checkb "base normal" true (Group.is_normal g (Semidirect.base_gens ~n));
  (* quotient by base is cyclic of order m *)
  let q = Group.quotient g (Group.closure g (Semidirect.base_gens ~n)) in
  checki "quotient order" 4 (Group.order q);
  checkb "quotient abelian" true (Group.is_abelian q)

let test_dicyclic_structure () =
  (* Q_8 facts *)
  let q8 = Dicyclic.group 2 in
  checki "order Q_8" 8 (Group.order q8);
  check_axioms q8 (Group.elements q8);
  checki "|Q_8'|" 2 (List.length (Group.commutator_subgroup q8));
  checki "|Z(Q_8)|" 2 (List.length (Group.center q8));
  (* exactly one involution *)
  checki "one involution" 1
    (List.length (List.filter (fun x -> Group.element_order q8 x = 2) (Group.elements q8)));
  (* general n: |Q_4n| = 4n, G' = <a^2> of order n, b has order 4 *)
  List.iter
    (fun n ->
      let g = Dicyclic.group n in
      checki "order" (4 * n) (Group.order g);
      check_axioms g (sample_of g 4);
      checki "commutator" n (List.length (Group.commutator_subgroup g));
      checki "b order" 4 (Group.element_order g (Dicyclic.b_gen n));
      checki "central involution order" 2
        (Group.element_order g (Dicyclic.central_involution n));
      checkb "solvable" true (Group.is_solvable g))
    [ 2; 3; 4; 5 ]

let test_metacyclic_structure () =
  (* dihedral as metacyclic: Z_7 x|_6 Z_2 ~ D_7 *)
  let d7 = Metacyclic.group ~n:7 ~m:2 ~k:6 in
  checki "order" 14 (Group.order d7);
  check_axioms d7 (sample_of d7 4);
  checkb "base normal" true (Group.is_normal d7 [ Metacyclic.base_gen ]);
  (* Frobenius 21 = Z_7 x| Z_3: the smallest odd non-Abelian group *)
  let f21 = Metacyclic.frobenius ~p:7 ~q:3 in
  checki "order 21" 21 (Group.order f21);
  check_axioms f21 (sample_of f21 4);
  checkb "nonabelian" false (Group.is_abelian f21);
  checkb "solvable" true (Group.is_solvable f21);
  checki "commutator = Z_7" 7 (List.length (Group.commutator_subgroup f21));
  (* affine group AGL(1,5): order 20 *)
  let a5 = Metacyclic.affine ~p:5 in
  checki "AGL(1,5) order" 20 (Group.order a5);
  checkb "translations normal" true (Group.is_normal a5 [ Metacyclic.base_gen ]);
  Alcotest.check_raises "bad multiplier"
    (Invalid_argument "Metacyclic.group: k^m <> 1 mod n") (fun () ->
      ignore (Metacyclic.group ~n:7 ~m:2 ~k:3))

let test_semidirect_perm_structure () =
  (* Z_2^4 x| V_4 (coordinate double-swaps): order 16 * 4 = 64 *)
  let n = 4 in
  let top = [ Perm.of_cycles 4 [ [ 0; 1 ]; [ 2; 3 ] ]; Perm.of_cycles 4 [ [ 0; 2 ]; [ 1; 3 ] ] ] in
  let g = Semidirect_perm.group ~n ~top in
  checki "order" 64 (Group.order g);
  check_axioms g (sample_of g 5);
  let base = Semidirect_perm.base_gens ~n in
  checkb "base normal" true (Group.is_normal g base);
  let q = Group.quotient g (Group.closure g base) in
  checki "quotient V_4" 4 (Group.order q);
  checkb "quotient not cyclic" true
    (List.for_all (fun x -> Group.element_order q x <= 2) (Group.elements q));
  (* wreath as a special case: Z_2^2k x| <swap permutation> *)
  let k = 2 in
  let swap = Perm.of_cycles (2 * k) [ [ 0; k ]; [ 1; k + 1 ] ] in
  let w = Semidirect_perm.group ~n:(2 * k) ~top:[ swap ] in
  checki "wreath order" (1 lsl ((2 * k) + 1)) (Group.order w)

let test_normalizer_conjugacy_abelianization () =
  let g = Perm.symmetric 4 in
  (* normalizer of a Sylow 3-subgroup of S_4 has order 6 *)
  let syl3 = Group.sylow_subgroup g 3 in
  checki "N(Syl_3)" 6 (List.length (Group.normalizer g syl3));
  (* normalizer of a normal subgroup is everything *)
  let v4 = Group.normal_closure g [ Perm.of_cycles 4 [ [ 0; 1 ]; [ 2; 3 ] ] ] in
  checki "N(V_4) = S_4" 24 (List.length (Group.normalizer g v4));
  (* conjugacy classes of S_4: sizes 1, 6, 8, 6, 3 *)
  let classes = Group.conjugacy_classes g in
  Alcotest.(check (list int)) "class sizes" [ 1; 3; 6; 6; 8 ]
    (List.sort compare (List.map List.length classes));
  (* abelianization of S_4 is Z_2; of Q_8 is Z_2 x Z_2 *)
  checki "S_4^ab" 2 (Group.order (Group.abelianization g));
  checki "Q_8^ab" 4 (Group.order (Group.abelianization (Dicyclic.group 2)));
  checkb "A_5 simple" true (Group.is_simple (Perm.alternating 5));
  checkb "A_4 not simple" false (Group.is_simple (Perm.alternating 4));
  checkb "Z_7 simple" true (Group.is_simple (Cyclic.zn 7));
  checkb "Z_6 not simple" false (Group.is_simple (Cyclic.zn 6));
  checkb "trivial not simple" false (Group.is_simple (Cyclic.zn 1));
  checkb "S_5 not perfect" false (Group.is_perfect (Perm.symmetric 5));
  checkb "A_5 perfect" true (Group.is_perfect (Perm.alternating 5))

let test_semidirect_rejects_bad_action () =
  Alcotest.check_raises "action order"
    (Invalid_argument "Semidirect.group: action^m <> I") (fun () ->
      ignore (Semidirect.group ~action:(Semidirect.cyclic_action 4) ~m:3))

(* ------------------------------------------------------------------ *)
(* Generic algorithms                                                 *)
(* ------------------------------------------------------------------ *)

let test_pow () =
  let g = Dihedral.group 12 in
  let s = Dihedral.rotation 12 1 in
  checkb "pow 5" true (g.Group.equal (Group.pow g s 5) (Dihedral.rotation 12 5));
  checkb "pow 0" true (g.Group.equal (Group.pow g s 0) g.Group.id);
  checkb "pow neg" true (g.Group.equal (Group.pow g s (-3)) (Dihedral.rotation 12 9));
  checkb "pow wraps" true (g.Group.equal (Group.pow g s 25) (Dihedral.rotation 12 1))

let test_element_order () =
  let g = Perm.symmetric 5 in
  checki "5-cycle" 5 (Group.element_order g (Perm.cyclic_shift 5));
  checki "identity" 1 (Group.element_order g (Perm.identity 5));
  checki "2+3 cycle type" 6
    (Group.element_order g (Perm.of_cycles 5 [ [ 0; 1 ]; [ 2; 3; 4 ] ]))

let test_closure_subgroup () =
  let g = Perm.symmetric 4 in
  let v4 =
    Group.closure g
      [ Perm.of_cycles 4 [ [ 0; 1 ]; [ 2; 3 ] ]; Perm.of_cycles 4 [ [ 0; 2 ]; [ 1; 3 ] ] ]
  in
  checki "klein four" 4 (List.length v4);
  checkb "mem" true
    (Group.subgroup_mem g [ Perm.cyclic_shift 4 ] (Perm.of_cycles 4 [ [ 0; 2 ]; [ 1; 3 ] ]))

let test_normal_closure () =
  let g = Perm.symmetric 4 in
  (* normal closure of a transposition is all of S_4 *)
  checki "transposition closure" 24
    (List.length (Group.normal_closure g [ Perm.of_cycles 4 [ [ 0; 1 ] ] ]));
  (* normal closure of a 3-cycle is A_4 *)
  checki "3cycle closure" 12
    (List.length (Group.normal_closure g [ Perm.of_cycles 4 [ [ 0; 1; 2 ] ] ]));
  (* normal closure of a double transposition is V_4 *)
  checki "dtrans closure" 4
    (List.length (Group.normal_closure g [ Perm.of_cycles 4 [ [ 0; 1 ]; [ 2; 3 ] ] ]))

let test_center_centralizer () =
  checki "Z(S_4)" 1 (List.length (Group.center (Perm.symmetric 4)));
  checki "Z(D_4)" 2 (List.length (Group.center (Dihedral.group 4)));
  checki "Z(D_5)" 1 (List.length (Group.center (Dihedral.group 5)));
  checki "Z(abelian) = G" 12 (List.length (Group.center (Cyclic.product [| 12 |])));
  let g = Dihedral.group 6 in
  let c = Group.centralizer g [ Dihedral.rotation 6 1 ] in
  checki "centralizer of rotation = rotations" 6 (List.length c)

let test_commutator_subgroup () =
  checki "S_4' = A_4" 12 (List.length (Group.commutator_subgroup (Perm.symmetric 4)));
  checki "A_4' = V_4" 4 (List.length (Group.commutator_subgroup (Perm.alternating 4)));
  checki "D_6'" 3 (List.length (Group.commutator_subgroup (Dihedral.group 6)));
  checki "abelian'" 1 (List.length (Group.commutator_subgroup (Cyclic.product [| 6; 4 |])))

let test_derived_series_solvability () =
  checkb "S_4 solvable" true (Group.is_solvable (Perm.symmetric 4));
  checkb "S_5 not solvable" false (Group.is_solvable (Perm.symmetric 5));
  checkb "A_5 not solvable" false (Group.is_solvable (Perm.alternating 5));
  checkb "D_12 solvable" true (Group.is_solvable (Dihedral.group 12));
  checkb "H_3 solvable" true (Group.is_solvable (Extraspecial.group ~p:3 ~m:1));
  let series = Group.derived_series (Perm.symmetric 4) in
  Alcotest.(check (list int)) "S4 derived lengths" [ 24; 12; 4; 1 ]
    (List.map List.length series)

let test_coset_reps () =
  let g = Dihedral.group 6 in
  let rotations = Group.closure g [ Dihedral.rotation 6 1 ] in
  let reps = Group.coset_reps g rotations in
  checki "two cosets" 2 (List.length reps);
  checkb "id first" true (g.Group.equal (List.hd reps) g.Group.id)

let test_quotient () =
  let g = Dihedral.group 8 in
  let n = Group.closure g [ Dihedral.rotation 8 2 ] in
  let q = Group.quotient g n in
  checki "order" 4 (Group.order q);
  check_axioms q (sample_of q 3);
  checkb "quotient abelian" true (Group.is_abelian q);
  List.iter
    (fun x -> checkb "exponent 2" true (Group.element_order q x <= 2))
    (Group.elements q)

let test_quotient_map_hom () =
  let g = Perm.symmetric 4 in
  let v4 = Group.normal_closure g [ Perm.of_cycles 4 [ [ 0; 1 ]; [ 2; 3 ] ] ] in
  let proj = Group.quotient_map g v4 in
  let r = rng () in
  for _ = 1 to 30 do
    let x = Group.random_element r g and y = Group.random_element r g in
    checkb "projection multiplicative" true
      (g.Group.equal (proj (g.Group.mul (proj x) (proj y))) (proj (g.Group.mul x y)))
  done

let test_direct_product () =
  let g = Group.direct_product (Dihedral.group 3) (Cyclic.zn 4) in
  checki "order" 24 (Group.order g);
  check_axioms g (sample_of g 4)

let test_sylow () =
  let s4 = Perm.symmetric 4 in
  checki "sylow 2 of S4" 8 (List.length (Group.sylow_subgroup s4 2));
  checki "sylow 3 of S4" 3 (List.length (Group.sylow_subgroup s4 3));
  let d6 = Dihedral.group 6 in
  checki "sylow 2 of D6" 4 (List.length (Group.sylow_subgroup d6 2));
  checki "sylow 3 of D6" 3 (List.length (Group.sylow_subgroup d6 3));
  Alcotest.check_raises "p not dividing"
    (Invalid_argument "Group.sylow_subgroup: p does not divide |G|") (fun () ->
      ignore (Group.sylow_subgroup s4 5))

let test_sylow_is_subgroup () =
  let r = rng () in
  let g = Dihedral.group 12 in
  List.iter
    (fun p ->
      let syl = Group.sylow_subgroup g p in
      for _ = 1 to 20 do
        let a = List.nth syl (Random.State.int r (List.length syl)) in
        let b = List.nth syl (Random.State.int r (List.length syl)) in
        checkb "closed" true (List.exists (fun c -> g.Group.equal c (g.Group.mul a b)) syl)
      done)
    [ 2; 3 ]

let test_composition_series () =
  let s4 = Perm.symmetric 4 in
  let factors = Group.composition_factors s4 in
  Alcotest.(check (list int)) "S4 factors sorted" [ 2; 2; 2; 3 ] (List.sort compare factors);
  checki "product = |G|" 24 (List.fold_left ( * ) 1 factors);
  let h3 = Extraspecial.group ~p:3 ~m:1 in
  Alcotest.(check (list int)) "H3 factors" [ 3; 3; 3 ]
    (List.sort compare (Group.composition_factors h3));
  Alcotest.check_raises "non-solvable"
    (Invalid_argument "Group.composition_series: not solvable") (fun () ->
      ignore (Group.composition_series (Perm.symmetric 5)))

let test_composition_series_structure () =
  let g = Dihedral.group 6 in
  let series = Group.composition_series g in
  let sizes = List.map List.length series in
  checki "starts at |G|" 12 (List.hd sizes);
  checki "ends at 1" 1 (List.nth sizes (List.length sizes - 1));
  let rec steps = function
    | a :: (b :: _ as rest) ->
        checkb "divides" true (a mod b = 0);
        checkb "prime index" true (Numtheory.Primes.is_prime (a / b));
        steps rest
    | _ -> ()
  in
  steps sizes

let test_exponent () =
  checki "exp S_4" 12 (Group.exponent_of (Perm.symmetric 4));
  checki "exp Z4xZ6" 12 (Group.exponent_of (Cyclic.product [| 4; 6 |]))

let test_subgroup_lattice_counts () =
  (* classical subgroup counts *)
  checki "Z_12 has 6 subgroups" 6 (Subgroup_lattice.count (Cyclic.zn 12));
  checki "Q_8 has 6 subgroups" 6 (Subgroup_lattice.count (Dicyclic.group 2));
  checki "S_3 has 6 subgroups" 6 (Subgroup_lattice.count (Perm.symmetric 3));
  checki "D_4 has 10 subgroups" 10 (Subgroup_lattice.count (Dihedral.group 4));
  checki "S_4 has 30 subgroups" 30 (Subgroup_lattice.count (Perm.symmetric 4));
  checki "V_4 has 5 subgroups" 5 (Subgroup_lattice.count (Cyclic.boolean_cube 2))

let test_subgroup_lattice_properties () =
  let g = Dihedral.group 6 in
  let subs = Subgroup_lattice.all_subgroups g in
  (* first is trivial, last is the whole group *)
  checki "trivial first" 1 (List.length (List.hd subs));
  checki "G last" 12 (List.length (List.nth subs (List.length subs - 1)));
  (* Lagrange for every subgroup; every subgroup closed *)
  List.iter
    (fun s ->
      checki "lagrange" 0 (12 mod List.length s);
      let t = Group.closure g s in
      checki "closed" (List.length s) (List.length t))
    subs;
  (* every normal subgroup of Q_8 (all subgroups of Q_8 are normal) *)
  let q8 = Dicyclic.group 2 in
  checki "Q_8: all subgroups normal" (Subgroup_lattice.count q8)
    (List.length (Subgroup_lattice.normal_subgroups q8));
  (* in S_3: exactly 3 of the 6 are normal (1, A_3, S_3, and... 1, <(123)>, S_3) *)
  checki "S_3 normal subgroups" 3
    (List.length (Subgroup_lattice.normal_subgroups (Perm.symmetric 3)))

(* ------------------------------------------------------------------ *)
(* Abelian decomposition                                              *)
(* ------------------------------------------------------------------ *)

let test_abelian_decompose_cyclic_products () =
  List.iter
    (fun dims ->
      let g = Cyclic.product dims in
      let dec = Abelian.decompose g in
      checki "order preserved" (Group.order g) (Abelian.order dec);
      Array.iter
        (fun d ->
          let f = Numtheory.Primes.factorize d in
          checki "prime power" 1 (List.length f))
        dec.Abelian.dims;
      List.iter
        (fun x ->
          checkb "roundtrip" true
            (g.Group.equal x (dec.Abelian.of_exponents (dec.Abelian.to_exponents x))))
        (Group.elements g))
    [ [| 12 |]; [| 2; 2; 2 |]; [| 4; 6 |]; [| 8; 9; 5 |]; [| 1 |] ]

let test_abelian_decompose_invariants () =
  let dec = Abelian.decompose (Cyclic.zn 12) in
  Alcotest.(check (list int)) "invariants of Z12" [ 3; 4 ]
    (List.sort compare (Array.to_list dec.Abelian.dims))

let test_abelian_decompose_hom () =
  let g = Cyclic.product [| 4; 6 |] in
  let dec = Abelian.decompose g in
  let r = rng () in
  for _ = 1 to 30 do
    let x = Group.random_element r g and y = Group.random_element r g in
    let ex = dec.Abelian.to_exponents x and ey = dec.Abelian.to_exponents y in
    let sum = Array.mapi (fun i v -> (v + ey.(i)) mod dec.Abelian.dims.(i)) ex in
    checkb "to_exponents additive" true
      (g.Group.equal (g.Group.mul x y) (dec.Abelian.of_exponents sum))
  done

let test_abelian_decompose_subgroup () =
  let g = Wreath.group 2 in
  let dec = Abelian.decompose_subgroup g (Wreath.base_gens 2) in
  checki "base = Z_2^4" 16 (Abelian.order dec);
  Array.iter (fun d -> checki "all 2" 2 d) dec.Abelian.dims;
  Alcotest.check_raises "noncommuting"
    (Invalid_argument "Abelian.decompose_subgroup: generators do not commute") (fun () ->
      ignore (Abelian.decompose_subgroup g g.Group.generators))

let test_abelian_decompose_nonabelian_rejected () =
  Alcotest.check_raises "nonabelian" (Invalid_argument "Abelian.decompose: not Abelian")
    (fun () -> ignore (Abelian.decompose (Dihedral.group 5)))

(* [to_exponents] is a bijection onto the exponent box, inverted by
   [of_exponents], and additive: checking x * s against every element x
   and generator s covers the homomorphism property on all of [<gens>]. *)
let check_decomposition g gens dec =
  let elems = Group.closure g gens in
  checki "order" (List.length elems) (Abelian.order dec);
  let dims = dec.Abelian.dims and te = dec.Abelian.to_exponents in
  let gen_exps = List.map (fun s -> (s, te s)) gens in
  List.iter
    (fun x ->
      let e = te x in
      if not (Array.for_all2 (fun v d -> 0 <= v && v < d) e dims) then Alcotest.fail "out of box";
      if not (g.Group.equal x (dec.Abelian.of_exponents e)) then Alcotest.fail "roundtrip";
      List.iter
        (fun (s, es) ->
          if te (g.Group.mul x s) <> Array.mapi (fun i v -> (v + es.(i)) mod dims.(i)) e then
            Alcotest.fail "not additive")
        gen_exps)
    elems

let primary_parts dims =
  List.concat_map
    (fun d -> List.map (fun (p, a) -> Numtheory.Arith.pow p a) (Numtheory.Primes.factorize d))
    (Array.to_list dims)

let test_abelian_decompose_encodings () =
  let case name g gens dims outside =
    let dec = Abelian.decompose_subgroup g gens in
    Alcotest.(check (list int)) (name ^ " dims") dims (Array.to_list dec.Abelian.dims);
    check_decomposition g gens dec;
    Alcotest.check_raises (name ^ " outside")
      (Invalid_argument "Abelian.to_exponents: element not in group") (fun () ->
        ignore (dec.Abelian.to_exponents outside))
  in
  case "wreath base" (Wreath.group 4) (Wreath.base_gens 4) (List.init 8 (fun _ -> 2))
    (Wreath.swap_elt 4);
  case "semidirect base"
    (Semidirect.group ~action:(Semidirect.cyclic_action 6) ~m:6)
    (Semidirect.base_gens ~n:6) (List.init 6 (fun _ -> 2)) (Semidirect.top_gen ~n:6);
  let h = Extraspecial.group ~p:5 ~m:2 in
  case "extraspecial centre" h [ Extraspecial.center_gen ~p:5 ~m:2 ] [ 5 ]
    (List.hd h.Group.generators);
  let t a b = Perm.of_cycles 6 [ [ a; b ] ] in
  case "transpositions in S_6" (Perm.symmetric 6) [ t 0 1; t 2 3; t 4 5 ] [ 2; 2; 2 ]
    (Perm.of_cycles 6 [ [ 0; 1; 2 ] ])

let test_abelian_decompose_guard () =
  let too_large what g =
    match Abelian.decompose g with
    | _ -> Alcotest.failf "%s: no Invalid_argument past Group.max_enumeration" what
    | exception Invalid_argument _ -> ()
  in
  (* 2^21 elements: the span outgrows the guard at the second factor *)
  too_large "span" (Cyclic.product [| 1024; 1024; 2 |]);
  (* a single generator whose order passes the guard *)
  too_large "order" (Cyclic.zn (2 * Group.max_enumeration))

(* Cost regression, by call count rather than time: the decomposition
   enumerates G once, so it stays within a small multiple of |G|
   multiplications and encodings.  Per-element order computations or a
   closure per complement candidate cost millions of calls here. *)
let test_abelian_decompose_cost () =
  List.iter
    (fun g ->
      let n = Group.order g in
      let counted, c = Blackbox.instrument g in
      let reprs = ref 0 in
      let counted = { counted with Group.repr = (fun x -> incr reprs; g.Group.repr x) } in
      let dec = Abelian.decompose counted in
      checki "order" n (Abelian.order dec);
      checkb (Printf.sprintf "%s: %d muls <= 8|G| = %d" g.Group.name c.Blackbox.mul (8 * n)) true
        (c.Blackbox.mul <= 8 * n);
      checkb (Printf.sprintf "%s: %d reprs <= 8|G| = %d" g.Group.name !reprs (8 * n)) true
        (!reprs <= 8 * n))
    [ Cyclic.product [| 112; 32 |]; Cyclic.boolean_cube 12 ]

(* ------------------------------------------------------------------ *)
(* Words, presentations, Todd-Coxeter                                 *)
(* ------------------------------------------------------------------ *)

let test_word_eval () =
  let g = Dihedral.group 5 in
  let gens = g.Group.generators in
  let w = [ 1; 2; -1 ] in
  let expected =
    g.Group.mul
      (g.Group.mul (Dihedral.rotation 5 1) (Dihedral.reflection 5 0))
      (g.Group.inv (Dihedral.rotation 5 1))
  in
  checkb "eval" true (g.Group.equal (Word.eval g gens w) expected);
  checkb "empty word" true (g.Group.equal (Word.eval g gens []) g.Group.id)

let test_word_reduce () =
  Alcotest.(check (list int)) "cancel" [ 1 ] (Word.reduce [ 1; 2; -2 ]);
  Alcotest.(check (list int)) "nested" [] (Word.reduce [ 1; 2; -2; -1 ]);
  Alcotest.(check (list int)) "noop" [ 1; 2 ] (Word.reduce [ 1; 2 ])

let test_word_inverse () =
  let g = Perm.symmetric 4 in
  let gens = g.Group.generators in
  let w = [ 1; 2; 1; -2 ] in
  checkb "w w^-1 = id" true
    (g.Group.equal (Word.eval g gens (Word.concat w (Word.inverse w))) g.Group.id)

let test_slp_eval () =
  let g = Dihedral.group 7 in
  let gens = g.Group.generators in
  let r = rng () in
  for _ = 1 to 20 do
    let w =
      List.init
        (1 + Random.State.int r 6)
        (fun _ ->
          let k = 1 + Random.State.int r 2 in
          if Random.State.bool r then k else -k)
    in
    let prog = Word.Slp.of_word [] w in
    checkb "slp = word" true
      (g.Group.equal (Word.Slp.eval g gens prog) (Word.eval g gens w));
    checkb "to_word consistent" true
      (g.Group.equal (Word.eval g gens (Word.Slp.to_word prog)) (Word.eval g gens w))
  done

let check_presentation_of : 'a. 'a Group.t -> unit =
 fun grp ->
  let pres, word_of = Presentation.of_group grp in
  checkb "relators hold" true (Presentation.check_relators grp pres);
  List.iter
    (fun x ->
      checkb "word reconstructs" true
        (grp.Group.equal x (Word.eval grp grp.Group.generators (word_of x))))
    (Group.elements grp)

let test_presentation_relators_hold () =
  check_presentation_of (Dihedral.group 6);
  check_presentation_of (Perm.symmetric 3);
  check_presentation_of (Cyclic.product [| 4; 3 |])

let test_toddcoxeter_known_presentations () =
  (* Z_n = <x | x^n> *)
  checki "Z_5" 5
    (Toddcoxeter.enumerate ~ngens:1 ~relators:[ [ 1; 1; 1; 1; 1 ] ] ~subgroup:[]
       ~max_cosets:100);
  (* D_4 = <r, t | r^4, t^2, (rt)^2> *)
  checki "D_4" 8
    (Toddcoxeter.enumerate ~ngens:2
       ~relators:[ [ 1; 1; 1; 1 ]; [ 2; 2 ]; [ 1; 2; 1; 2 ] ]
       ~subgroup:[] ~max_cosets:100);
  (* S_3 = <a, b | a^2, b^2, (ab)^3> *)
  checki "S_3" 6
    (Toddcoxeter.enumerate ~ngens:2
       ~relators:[ [ 1; 1 ]; [ 2; 2 ]; [ 1; 2; 1; 2; 1; 2 ] ]
       ~subgroup:[] ~max_cosets:100);
  (* quaternion group <i, j | i^4, i^2 j^-2, j i j^-1 i> *)
  checki "Q_8" 8
    (Toddcoxeter.enumerate ~ngens:2
       ~relators:[ [ 1; 1; 1; 1 ]; [ 1; 1; -2; -2 ]; [ 2; 1; -2; 1 ] ]
       ~subgroup:[] ~max_cosets:200)

let test_toddcoxeter_subgroup_index () =
  checki "index 2" 2
    (Toddcoxeter.enumerate ~ngens:2
       ~relators:[ [ 1; 1; 1; 1 ]; [ 2; 2 ]; [ 1; 2; 1; 2 ] ]
       ~subgroup:[ [ 1 ] ] ~max_cosets:100);
  checki "index 3" 3
    (Toddcoxeter.enumerate ~ngens:2
       ~relators:[ [ 1; 1 ]; [ 2; 2 ]; [ 1; 2; 1; 2; 1; 2 ] ]
       ~subgroup:[ [ 1 ] ] ~max_cosets:100)

let test_toddcoxeter_collapse () =
  (* <a | a^2, a^3> is trivial: gcd of exponents is 1, so heavy
     coincidence processing must collapse everything to one coset *)
  checki "collapse to trivial" 1
    (Toddcoxeter.enumerate ~ngens:1 ~relators:[ [ 1; 1 ]; [ 1; 1; 1 ] ] ~subgroup:[]
       ~max_cosets:100);
  (* <a, b | a, b> is trivial *)
  checki "both killed" 1
    (Toddcoxeter.enumerate ~ngens:2 ~relators:[ [ 1 ]; [ 2 ] ] ~subgroup:[] ~max_cosets:100);
  (* the trivial presentation of Z: whole-group subgroup *)
  checki "subgroup = G" 1
    (Toddcoxeter.enumerate ~ngens:1 ~relators:[ [ 1; 1; 1; 1 ] ] ~subgroup:[ [ 1 ] ]
       ~max_cosets:100)

let test_subgroup_lattice_guard () =
  Alcotest.check_raises "too many"
    (Invalid_argument "Subgroup_lattice.all_subgroups: too many subgroups") (fun () ->
      ignore (Subgroup_lattice.all_subgroups ~max_subgroups:3 (Dihedral.group 6)))

let test_toddcoxeter_overflow () =
  Alcotest.check_raises "overflow" Toddcoxeter.Overflow (fun () ->
      ignore (Toddcoxeter.enumerate ~ngens:1 ~relators:[] ~subgroup:[] ~max_cosets:50))

let check_tc_order : 'a. 'a Group.t -> unit =
 fun g ->
  let pres, _ = Presentation.of_group g in
  checki
    (Printf.sprintf "order of presented %s" g.Group.name)
    (Group.order g)
    (Toddcoxeter.order_of_presentation pres ~max_cosets:(8 * Group.order g))

let test_presentation_verified_by_toddcoxeter () =
  check_tc_order (Dihedral.group 5);
  check_tc_order (Perm.symmetric 3);
  check_tc_order (Perm.alternating 4);
  check_tc_order (Cyclic.product [| 6; 2 |]);
  check_tc_order (Extraspecial.group ~p:3 ~m:1);
  check_tc_order (Wreath.group 2)

(* ------------------------------------------------------------------ *)
(* Black-box instrumentation                                          *)
(* ------------------------------------------------------------------ *)

let test_blackbox_counters () =
  let g, c = Blackbox.instrument (Dihedral.group 6) in
  ignore (g.Group.mul g.Group.id g.Group.id);
  ignore (g.Group.inv g.Group.id);
  ignore (g.Group.equal g.Group.id g.Group.id);
  checki "mul" 1 c.Blackbox.mul;
  checki "inv" 1 c.Blackbox.inv;
  checki "eq" 1 c.Blackbox.eq;
  checki "total" 3 (Blackbox.total c);
  Blackbox.reset c;
  checki "reset" 0 (Blackbox.total c)

(* ------------------------------------------------------------------ *)
(* QCheck properties                                                  *)
(* ------------------------------------------------------------------ *)

let qcheck_props =
  let open QCheck in
  [
    Test.make ~name:"dihedral: pow matches repeated mul" ~count:100
      (pair (int_range 1 12) (int_range 0 30))
      (fun (n, k) ->
        let g = Dihedral.group n in
        let s = Dihedral.rotation n 1 in
        let by_pow = Group.pow g s k in
        let by_mul =
          List.fold_left (fun acc _ -> g.Group.mul acc s) g.Group.id (List.init k Fun.id)
        in
        g.Group.equal by_pow by_mul);
    Test.make ~name:"element order divides group order" ~count:60 (int_range 1 10)
      (fun n ->
        let g = Dihedral.group n in
        let r = Random.State.make [| n |] in
        let x = Group.random_element r g in
        Group.order g mod Group.element_order g x = 0);
    Test.make ~name:"normal closure contains seed and is normal" ~count:30
      (int_range 2 5)
      (fun n ->
        let g = Perm.symmetric n in
        let r = Random.State.make [| n * 7 |] in
        let x = Group.random_element r g in
        let nc = Group.normal_closure g [ x ] in
        List.exists (g.Group.equal x) nc && Group.is_normal g nc);
    Test.make ~name:"lagrange: subgroup order divides group order" ~count:40
      (int_range 2 8)
      (fun n ->
        let g = Dihedral.group n in
        let r = Random.State.make [| n * 13 |] in
        let gens = Group.random_subgroup_gens r g in
        Group.order g mod List.length (Group.closure g gens) = 0);
    Test.make ~name:"abelian decompose: primary parts in order, bijection, additive" ~count:40
      (make
         ~print:(fun d -> String.concat "x" (List.map string_of_int (Array.to_list d)))
         Gen.(
           map
             (fun ds ->
               (* keep the longest prefix with |G| <= 2^13 *)
               let _, kept =
                 List.fold_left
                   (fun (n, acc) d -> if n * d <= 8192 then (n * d, d :: acc) else (n, acc))
                   (1, []) ds
               in
               Array.of_list (List.rev kept))
             (list_size (int_range 1 5) (int_range 1 64))))
      (fun dims ->
        let g = Cyclic.product dims in
        let dec = Abelian.decompose g in
        check_decomposition g g.Group.generators dec;
        (* grouped by prime (ascending), largest power first *)
        let key d = (fst (List.hd (Numtheory.Primes.factorize d)), -d) in
        Array.to_list dec.Abelian.dims
        = List.sort (fun a b -> compare (key a) (key b))
            (primary_parts dims));
  ]

let () =
  Alcotest.run "groups"
    [
      ( "families",
        [
          Alcotest.test_case "perm basics" `Quick test_perm_basics;
          Alcotest.test_case "perm compose" `Quick test_perm_compose_semantics;
          Alcotest.test_case "symmetric orders" `Quick test_symmetric_orders;
          Alcotest.test_case "perm axioms" `Quick test_perm_axioms;
          Alcotest.test_case "cyclic orders" `Quick test_cyclic_orders;
          Alcotest.test_case "cyclic axioms" `Quick test_cyclic_axioms;
          Alcotest.test_case "cyclic encoding" `Quick test_cyclic_encoding;
          Alcotest.test_case "dihedral" `Quick test_dihedral_structure;
          Alcotest.test_case "matrix GL" `Quick test_matrix_group_gl;
          Alcotest.test_case "matrix inverse" `Quick test_matrix_inverse_random;
          Alcotest.test_case "matrix det" `Quick test_matrix_det_multiplicative;
          Alcotest.test_case "section6 family" `Quick test_section6_family;
          Alcotest.test_case "extraspecial" `Quick test_extraspecial_structure;
          Alcotest.test_case "extraspecial tuples" `Quick test_extraspecial_tuple_roundtrip;
          Alcotest.test_case "wreath" `Quick test_wreath_structure;
          Alcotest.test_case "semidirect" `Quick test_semidirect_structure;
          Alcotest.test_case "dicyclic" `Quick test_dicyclic_structure;
          Alcotest.test_case "semidirect-perm" `Quick test_semidirect_perm_structure;
          Alcotest.test_case "metacyclic" `Quick test_metacyclic_structure;
          Alcotest.test_case "normalizer/conjugacy/abelianization" `Quick
            test_normalizer_conjugacy_abelianization;
          Alcotest.test_case "semidirect guard" `Quick test_semidirect_rejects_bad_action;
        ] );
      ( "algorithms",
        [
          Alcotest.test_case "pow" `Quick test_pow;
          Alcotest.test_case "element order" `Quick test_element_order;
          Alcotest.test_case "closure" `Quick test_closure_subgroup;
          Alcotest.test_case "normal closure" `Quick test_normal_closure;
          Alcotest.test_case "center/centralizer" `Quick test_center_centralizer;
          Alcotest.test_case "commutator subgroup" `Quick test_commutator_subgroup;
          Alcotest.test_case "derived series" `Quick test_derived_series_solvability;
          Alcotest.test_case "coset reps" `Quick test_coset_reps;
          Alcotest.test_case "quotient" `Quick test_quotient;
          Alcotest.test_case "quotient map" `Quick test_quotient_map_hom;
          Alcotest.test_case "direct product" `Quick test_direct_product;
          Alcotest.test_case "sylow" `Quick test_sylow;
          Alcotest.test_case "sylow closure" `Quick test_sylow_is_subgroup;
          Alcotest.test_case "composition series" `Quick test_composition_series;
          Alcotest.test_case "series structure" `Quick test_composition_series_structure;
          Alcotest.test_case "exponent" `Quick test_exponent;
          Alcotest.test_case "subgroup lattice counts" `Quick test_subgroup_lattice_counts;
          Alcotest.test_case "subgroup lattice properties" `Quick
            test_subgroup_lattice_properties;
        ] );
      ( "abelian",
        [
          Alcotest.test_case "decompose cyclic products" `Quick
            test_abelian_decompose_cyclic_products;
          Alcotest.test_case "invariants" `Quick test_abelian_decompose_invariants;
          Alcotest.test_case "additive" `Quick test_abelian_decompose_hom;
          Alcotest.test_case "subgroup" `Quick test_abelian_decompose_subgroup;
          Alcotest.test_case "rejects nonabelian" `Quick
            test_abelian_decompose_nonabelian_rejected;
          Alcotest.test_case "non-cyclic encodings" `Quick test_abelian_decompose_encodings;
          Alcotest.test_case "enumeration guard" `Quick test_abelian_decompose_guard;
          Alcotest.test_case "call-count cost" `Quick test_abelian_decompose_cost;
        ] );
      ( "presentations",
        [
          Alcotest.test_case "word eval" `Quick test_word_eval;
          Alcotest.test_case "word reduce" `Quick test_word_reduce;
          Alcotest.test_case "word inverse" `Quick test_word_inverse;
          Alcotest.test_case "slp" `Quick test_slp_eval;
          Alcotest.test_case "relators hold" `Quick test_presentation_relators_hold;
          Alcotest.test_case "todd-coxeter known" `Quick test_toddcoxeter_known_presentations;
          Alcotest.test_case "todd-coxeter subgroup" `Quick test_toddcoxeter_subgroup_index;
          Alcotest.test_case "todd-coxeter overflow" `Quick test_toddcoxeter_overflow;
          Alcotest.test_case "todd-coxeter collapse" `Quick test_toddcoxeter_collapse;
          Alcotest.test_case "lattice guard" `Quick test_subgroup_lattice_guard;
          Alcotest.test_case "presentations verified" `Slow
            test_presentation_verified_by_toddcoxeter;
        ] );
      ("blackbox", [ Alcotest.test_case "counters" `Quick test_blackbox_counters ]);
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_props);
    ]
