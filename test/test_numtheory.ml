(* Unit and property tests for the number-theory substrate. *)

open Numtheory

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Arith                                                              *)
(* ------------------------------------------------------------------ *)

let test_gcd_basic () =
  check "gcd 12 18" 6 (Arith.gcd 12 18);
  check "gcd 0 0" 0 (Arith.gcd 0 0);
  check "gcd 0 7" 7 (Arith.gcd 0 7);
  check "gcd neg" 6 (Arith.gcd (-12) 18);
  check "gcd coprime" 1 (Arith.gcd 35 64)

let test_egcd_identity () =
  List.iter
    (fun (a, b) ->
      let g, x, y = Arith.egcd a b in
      check (Printf.sprintf "egcd %d %d gcd" a b) (Arith.gcd a b) g;
      check (Printf.sprintf "egcd %d %d bezout" a b) g ((a * x) + (b * y)))
    [ (12, 18); (35, 64); (0, 5); (5, 0); (-12, 18); (240, 46); (1, 1) ]

let test_lcm () =
  check "lcm 4 6" 12 (Arith.lcm 4 6);
  check "lcm 0" 0 (Arith.lcm 0 5);
  check "lcm 7 5" 35 (Arith.lcm 7 5);
  check "lcm neg" 12 (Arith.lcm (-4) 6)

let test_pow () =
  check "2^10" 1024 (Arith.pow 2 10);
  check "3^0" 1 (Arith.pow 3 0);
  check "1^100" 1 (Arith.pow 1 100);
  check "(-2)^3" (-8) (Arith.pow (-2) 3)

let test_powmod () =
  check "2^10 mod 1000" 24 (Arith.powmod 2 10 1000);
  check "fermat" 1 (Arith.powmod 3 100 101);
  check "powmod neg base" (Arith.emod ((-2) * (-2) * (-2)) 7) (Arith.powmod (-2) 3 7);
  (* everything is 0 mod 1, the empty product included *)
  check "b^0 mod 1" 0 (Arith.powmod 5 0 1);
  check "0^0 mod 1" 0 (Arith.powmod 0 0 1)

let test_emod () =
  check "emod -1 5" 4 (Arith.emod (-1) 5);
  check "emod 7 5" 2 (Arith.emod 7 5);
  check "emod 0 5" 0 (Arith.emod 0 5)

let test_invmod () =
  check "inv 3 mod 7" 5 (Arith.invmod 3 7);
  check "inv 1 mod 2" 1 (Arith.invmod 1 2);
  Alcotest.check_raises "non-invertible" (Invalid_argument "Arith.invmod: not invertible")
    (fun () -> ignore (Arith.invmod 6 9))

let test_crt () =
  let x, m = Arith.crt [ (2, 3); (3, 5); (2, 7) ] in
  check "crt modulus" 105 m;
  check "crt value" 23 x;
  (* non-coprime, consistent *)
  let x, m = Arith.crt [ (2, 4); (4, 6) ] in
  check "crt noncoprime modulus" 12 m;
  check "crt noncoprime residue" 10 x;
  (* inconsistent *)
  Alcotest.check_raises "crt inconsistent" Not_found (fun () ->
      ignore (Arith.crt [ (1, 4); (2, 6) ]))

let test_isqrt () =
  check "isqrt 0" 0 (Arith.isqrt 0);
  check "isqrt 15" 3 (Arith.isqrt 15);
  check "isqrt 16" 4 (Arith.isqrt 16);
  check "isqrt 17" 4 (Arith.isqrt 17);
  check "isqrt big" 1000000 (Arith.isqrt 1000000000000)

let test_ilog2 () =
  check "ilog2 1" 0 (Arith.ilog2 1);
  check "ilog2 2" 1 (Arith.ilog2 2);
  check "ilog2 3" 1 (Arith.ilog2 3);
  check "ilog2 1024" 10 (Arith.ilog2 1024)

let test_divisors () =
  Alcotest.(check (list int)) "divisors 12" [ 1; 2; 3; 4; 6; 12 ] (Arith.divisors 12);
  Alcotest.(check (list int)) "divisors 1" [ 1 ] (Arith.divisors 1);
  Alcotest.(check (list int)) "divisors prime" [ 1; 13 ] (Arith.divisors 13)

let test_multiplicative_order () =
  check "ord 2 mod 7" 3 (Arith.multiplicative_order 2 7);
  check "ord 3 mod 7" 6 (Arith.multiplicative_order 3 7);
  check "ord 1 mod 5" 1 (Arith.multiplicative_order 1 5);
  check "ord anything mod 1" 1 (Arith.multiplicative_order 3 1)

(* ------------------------------------------------------------------ *)
(* Primes                                                             *)
(* ------------------------------------------------------------------ *)

let test_sieve () =
  Alcotest.(check (array int)) "primes <= 30"
    [| 2; 3; 5; 7; 11; 13; 17; 19; 23; 29 |]
    (Primes.sieve 30);
  Alcotest.(check (array int)) "primes <= 1" [||] (Primes.sieve 1)

let test_is_prime_small () =
  let known = Primes.sieve 1000 in
  let known_set = Array.to_list known in
  for n = 0 to 1000 do
    checkb (string_of_int n) (List.mem n known_set) (Primes.is_prime n)
  done

let test_is_prime_larger () =
  checkb "104729 prime" true (Primes.is_prime 104729);
  checkb "104730 not" false (Primes.is_prime 104730);
  checkb "2^31-1 prime" true (Primes.is_prime 2147483647);
  checkb "carmichael 561" false (Primes.is_prime 561);
  checkb "carmichael 41041" false (Primes.is_prime 41041)

let test_factorize () =
  Alcotest.(check (list (pair int int))) "12" [ (2, 2); (3, 1) ] (Primes.factorize 12);
  Alcotest.(check (list (pair int int))) "1" [] (Primes.factorize 1);
  Alcotest.(check (list (pair int int))) "97" [ (97, 1) ] (Primes.factorize 97);
  Alcotest.(check (list (pair int int)))
    "2^10 * 3^4"
    [ (2, 10); (3, 4) ]
    (Primes.factorize (1024 * 81));
  (* semiprime needing rho *)
  Alcotest.(check (list (pair int int)))
    "10403" [ (101, 1); (103, 1) ] (Primes.factorize 10403)

let test_factorize_roundtrip () =
  let rng = Random.State.make [| 11 |] in
  for _ = 1 to 200 do
    let n = 1 + Random.State.int rng 100000 in
    let f = Primes.factorize n in
    let back = List.fold_left (fun acc (p, e) -> acc * Arith.pow p e) 1 f in
    check (Printf.sprintf "roundtrip %d" n) n back;
    List.iter (fun (p, _) -> checkb "factor prime" true (Primes.is_prime p)) f
  done

let test_euler_phi () =
  check "phi 1" 1 (Primes.euler_phi 1);
  check "phi 12" 4 (Primes.euler_phi 12);
  check "phi 97" 96 (Primes.euler_phi 97);
  check "phi 100" 40 (Primes.euler_phi 100)

let test_random_prime () =
  let rng = Random.State.make [| 3 |] in
  for _ = 1 to 50 do
    let p = Primes.random_prime rng ~lo:100 ~hi:200 in
    checkb "in range" true (p >= 100 && p <= 200);
    checkb "prime" true (Primes.is_prime p)
  done;
  Alcotest.check_raises "empty interval"
    (Invalid_argument "Primes.random_prime: no prime in interval") (fun () ->
      ignore (Primes.random_prime rng ~lo:24 ~hi:28))

(* ------------------------------------------------------------------ *)
(* Continued fractions                                                *)
(* ------------------------------------------------------------------ *)

let test_expand () =
  Alcotest.(check (list int)) "415/93" [ 4; 2; 6; 7 ] (Contfrac.expand 415 93);
  Alcotest.(check (list int)) "0/5" [ 0 ] (Contfrac.expand 0 5);
  Alcotest.(check (list int)) "7/1" [ 7 ] (Contfrac.expand 7 1)

let test_convergents_last_exact () =
  List.iter
    (fun (p, q) ->
      match List.rev (Contfrac.convergents p q) with
      | (h, k) :: _ ->
          let g = Arith.gcd p q in
          check "num" (p / g) h;
          check "den" (q / g) k
      | [] -> Alcotest.fail "no convergents")
    [ (415, 93); (1365, 4096); (1, 7); (22, 7) ]

let test_convergents_quality () =
  (* each convergent h/k satisfies |p/q - h/k| < 1/k^2 *)
  let p = 1365 and q = 4096 in
  List.iter
    (fun (h, k) ->
      let err = Float.abs ((float_of_int p /. float_of_int q) -. (float_of_int h /. float_of_int k)) in
      checkb "quality" true (err < 1.0 /. float_of_int (k * k)))
    (Contfrac.convergents p q)

let test_best_denominator () =
  (match Contfrac.best_denominator_bounded 1365 4096 36 with
  | Some (h, k) ->
      check "h" 1 h;
      check "k" 3 k
  | None -> Alcotest.fail "expected convergent");
  checkb "none for 0 bound" true (Contfrac.best_denominator_bounded 1 3 0 = None)

(* ------------------------------------------------------------------ *)
(* Zmatrix / Smith normal form                                        *)
(* ------------------------------------------------------------------ *)

let random_matrix rng r c range =
  Array.init r (fun _ -> Array.init c (fun _ -> Random.State.int rng (2 * range) - range))

let is_unimodular m =
  (* |det| = 1 via fraction-free Gaussian elimination would be overkill;
     use the SNF itself on a copy: unimodular iff SNF diag is all 1s. *)
  let _, d, _ = Zmatrix.snf m in
  let diag = Zmatrix.diagonal_of_snf d in
  Zmatrix.rows m = Zmatrix.cols m && Array.for_all (fun x -> x = 1) diag

let test_snf_identity () =
  let u, d, v = Zmatrix.snf (Zmatrix.identity 3) in
  checkb "d = I" true (Zmatrix.equal d (Zmatrix.identity 3));
  checkb "u unimodular" true (is_unimodular u);
  checkb "v unimodular" true (is_unimodular v)

let test_snf_known () =
  (* classic example *)
  let a = [| [| 2; 4; 4 |]; [| -6; 6; 12 |]; [| 10; 4; 16 |] |] in
  let _, d, _ = Zmatrix.snf a in
  Alcotest.(check (array int)) "diag" [| 2; 2; 156 |] (Zmatrix.diagonal_of_snf d)

let test_snf_properties () =
  let rng = Random.State.make [| 17 |] in
  for _ = 1 to 100 do
    let r = 1 + Random.State.int rng 4 and c = 1 + Random.State.int rng 4 in
    let a = random_matrix rng r c 10 in
    let u, d, v = Zmatrix.snf a in
    (* u a v = d *)
    checkb "uav=d" true (Zmatrix.equal (Zmatrix.mul (Zmatrix.mul u a) v) d);
    (* diagonal, nonnegative, divisibility chain *)
    let diag = Zmatrix.diagonal_of_snf d in
    for i = 0 to Zmatrix.rows d - 1 do
      for j = 0 to Zmatrix.cols d - 1 do
        if i <> j then check "offdiag" 0 d.(i).(j)
      done
    done;
    Array.iter (fun x -> checkb "nonneg" true (x >= 0)) diag;
    for i = 0 to Array.length diag - 2 do
      if diag.(i) <> 0 then check "divides" 0 (diag.(i + 1) mod diag.(i))
      else check "zero tail" 0 diag.(i + 1)
    done;
    checkb "u unimodular" true (is_unimodular u);
    checkb "v unimodular" true (is_unimodular v)
  done

let test_kernel () =
  let rng = Random.State.make [| 23 |] in
  for _ = 1 to 100 do
    let r = 1 + Random.State.int rng 3 and c = 1 + Random.State.int rng 4 in
    let a = random_matrix rng r c 8 in
    let ker = Zmatrix.kernel a in
    List.iter
      (fun x ->
        let y = Zmatrix.apply a x in
        Array.iter (fun v -> check "a x = 0" 0 v) y;
        checkb "nonzero basis" true (Array.exists (fun v -> v <> 0) x))
      ker
  done

let test_kernel_dimension () =
  (* kernel of the zero map is everything *)
  let a = Zmatrix.make 2 3 0 in
  check "kernel dim" 3 (List.length (Zmatrix.kernel a));
  (* kernel of injective map is trivial *)
  let a = [| [| 1; 0 |]; [| 0; 1 |]; [| 1; 1 |] |] in
  check "trivial kernel" 0 (List.length (Zmatrix.kernel a))

let test_kernel_mod () =
  (* x + 2y = 0 mod 4 over Z_4 x Z_4: solutions generated *)
  let a = [| [| 1; 2 |] |] in
  let gens = Zmatrix.kernel_mod ~moduli:[| 4 |] a in
  (* brute force check: the subgroup generated mod (4,4) equals the
     true solution set *)
  let solutions = Hashtbl.create 16 in
  for x = 0 to 3 do
    for y = 0 to 3 do
      if (x + (2 * y)) mod 4 = 0 then Hashtbl.replace solutions (x, y) ()
    done
  done;
  (* close the generated set *)
  let gen_set = Hashtbl.create 16 in
  Hashtbl.replace gen_set (0, 0) ();
  let changed = ref true in
  while !changed do
    changed := false;
    Hashtbl.iter
      (fun (x, y) () ->
        List.iter
          (fun g ->
            let nx = Arith.emod (x + g.(0)) 4 and ny = Arith.emod (y + g.(1)) 4 in
            if not (Hashtbl.mem gen_set (nx, ny)) then begin
              Hashtbl.replace gen_set (nx, ny) ();
              changed := true
            end)
          gens)
      (Hashtbl.copy gen_set)
  done;
  check "same cardinality" (Hashtbl.length solutions) (Hashtbl.length gen_set);
  Hashtbl.iter (fun k () -> checkb "member" true (Hashtbl.mem solutions k)) gen_set

let test_solve () =
  let a = [| [| 2; 0 |]; [| 0; 3 |] |] in
  (match Zmatrix.solve a [| 4; 9 |] with
  | Some x -> Alcotest.(check (array int)) "solution" [| 2; 3 |] x
  | None -> Alcotest.fail "expected solution");
  checkb "no solution" true (Zmatrix.solve a [| 1; 0 |] = None)

let test_solve_random () =
  let rng = Random.State.make [| 31 |] in
  for _ = 1 to 100 do
    let r = 1 + Random.State.int rng 3 and c = 1 + Random.State.int rng 3 in
    let a = random_matrix rng r c 6 in
    let x0 = Array.init c (fun _ -> Random.State.int rng 11 - 5) in
    let b = Zmatrix.apply a x0 in
    match Zmatrix.solve a b with
    | Some x -> Alcotest.(check (array int)) "a x = b" b (Zmatrix.apply a x)
    | None -> Alcotest.fail "solvable system reported unsolvable"
  done

let test_solve_mod () =
  (* 3x = 6 mod 9 has solution x = 2 *)
  let a = [| [| 3 |] |] in
  (match Zmatrix.solve_mod ~moduli:[| 9 |] a [| 6 |] with
  | Some x -> check "residual" 0 (Arith.emod ((3 * x.(0)) - 6) 9)
  | None -> Alcotest.fail "expected solution");
  (* 3x = 1 mod 9 has none *)
  checkb "no sol" true (Zmatrix.solve_mod ~moduli:[| 9 |] a [| 1 |] = None)

(* ------------------------------------------------------------------ *)
(* HNF subgroup calculus                                              *)
(* ------------------------------------------------------------------ *)

(* Brute-force closure of [gens] in Z_dims under addition, as a sorted
   list of tuples — the reference the HNF calculus is checked against
   on enumerable groups. *)
let brute_closure ~dims gens =
  let seen : (int list, unit) Hashtbl.t = Hashtbl.create 64 in
  let add x y = Array.init (Array.length dims) (fun i -> (x.(i) + y.(i)) mod dims.(i)) in
  let zero = Array.make (Array.length dims) 0 in
  Hashtbl.replace seen (Array.to_list zero) ();
  let rec go frontier =
    match frontier with
    | [] -> ()
    | x :: rest ->
        let nexts =
          List.filter (fun y -> not (Hashtbl.mem seen (Array.to_list y))) (List.map (add x) gens)
        in
        List.iter (fun y -> Hashtbl.replace seen (Array.to_list y) ()) nexts;
        go (nexts @ rest)
  in
  go [ zero ];
  List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) seen [])

let test_hnf_vs_brute () =
  let rng = Random.State.make [| 11 |] in
  for _ = 1 to 40 do
    let r = 1 + Random.State.int rng 3 in
    let dims = Array.init r (fun _ -> [| 2; 3; 4; 6; 8 |].(Random.State.int rng 5)) in
    let gens =
      List.init (1 + Random.State.int rng 3) (fun _ ->
          Array.init r (fun i -> Random.State.int rng dims.(i)))
    in
    let b = Zmatrix.hnf_basis ~dims gens in
    let closure = brute_closure ~dims gens in
    (* order matches the closure *)
    (match Zmatrix.hnf_order_int ~dims b with
    | Some o -> check "order" (List.length closure) o
    | None -> Alcotest.fail "order overflow on a tiny group");
    checkb "order log2" true
      (Float.abs
         (Zmatrix.hnf_order_log2 ~dims b -. (log (float_of_int (List.length closure)) /. log 2.))
      < 1e-9);
    (* membership agrees pointwise over the whole ambient group *)
    let total = Array.fold_left ( * ) 1 dims in
    for idx = 0 to total - 1 do
      let x =
        let t = Array.make r 0 in
        let rec fill i v =
          if i >= 0 then begin
            t.(i) <- v mod dims.(i);
            fill (i - 1) (v / dims.(i))
          end
        in
        fill (r - 1) idx;
        t
      in
      checkb "mem" (List.mem (Array.to_list x) closure) (Zmatrix.hnf_mem ~dims b x)
    done;
    (* elements enumerates exactly the closure *)
    let elems = List.sort compare (List.map Array.to_list (Zmatrix.hnf_elements ~dims b)) in
    checkb "elements" true (elems = closure)
  done

let test_hnf_reduce_canonical () =
  let rng = Random.State.make [| 12 |] in
  let dims = [| 4; 6; 8 |] in
  let gens = [ [| 2; 0; 0 |]; [| 0; 3; 2 |] ] in
  let b = Zmatrix.hnf_basis ~dims gens in
  for _ = 1 to 200 do
    let x = Array.map (fun d -> Random.State.int rng d) dims in
    let h = Zmatrix.hnf_sample rng ~dims b in
    let y = Array.init 3 (fun i -> (x.(i) + h.(i)) mod dims.(i)) in
    (* same coset -> same canonical representative; the representative
       itself is in the coset of x *)
    let rx = Zmatrix.hnf_reduce ~dims b x and ry = Zmatrix.hnf_reduce ~dims b y in
    checkb "same rep" true (Array.to_list rx = Array.to_list ry);
    let diff = Array.init 3 (fun i -> (x.(i) - rx.(i) + dims.(i)) mod dims.(i)) in
    checkb "rep in coset" true (Zmatrix.hnf_mem ~dims b diff)
  done

let test_hnf_sample_uniform () =
  let rng = Random.State.make [| 13 |] in
  let dims = [| 4; 6 |] in
  let gens = [ [| 2; 3 |] ] in
  let b = Zmatrix.hnf_basis ~dims gens in
  let order = Option.get (Zmatrix.hnf_order_int ~dims b) in
  let n = 2000 in
  let counts = Hashtbl.create 16 in
  for _ = 1 to n do
    let x = Array.to_list (Zmatrix.hnf_sample rng ~dims b) in
    Hashtbl.replace counts x (1 + Option.value ~default:0 (Hashtbl.find_opt counts x));
    checkb "sample in subgroup" true (Zmatrix.hnf_mem ~dims b (Array.of_list x))
  done;
  check "hits every element" order (Hashtbl.length counts);
  let expected = float_of_int n /. float_of_int order in
  Hashtbl.iter
    (fun _ c ->
      let dev = Float.abs (float_of_int c -. expected) /. expected in
      checkb "roughly uniform" true (dev < 0.5))
    counts

let test_hnf_dual () =
  let rng = Random.State.make [| 14 |] in
  for _ = 1 to 30 do
    let r = 1 + Random.State.int rng 3 in
    let dims = Array.init r (fun _ -> [| 2; 3; 4; 6 |].(Random.State.int rng 4)) in
    let gens =
      List.init (1 + Random.State.int rng 2) (fun _ ->
          Array.init r (fun i -> Random.State.int rng dims.(i)))
    in
    let b = Zmatrix.hnf_basis ~dims gens in
    let d = Zmatrix.hnf_dual ~dims b in
    (* |H| * |H^perp| = |G| *)
    let total = Array.fold_left ( * ) 1 dims in
    check "order product"
      total
      (Option.get (Zmatrix.hnf_order_int ~dims b) * Option.get (Zmatrix.hnf_order_int ~dims d));
    (* every pair (h, y) pairs trivially *)
    List.iter
      (fun h ->
        List.iter
          (fun y ->
            let s = ref 0 in
            let l = Array.fold_left Arith.lcm 1 dims in
            Array.iteri (fun i hi -> s := !s + (hi * y.(i) * (l / dims.(i)))) h;
            check "character trivial" 0 (Arith.emod !s l))
          (Zmatrix.hnf_elements ~dims d))
      (Zmatrix.hnf_elements ~dims b);
    (* dual of dual is the original (canonical forms are equal) *)
    checkb "dual involutive" true (Zmatrix.equal (Zmatrix.hnf_dual ~dims d) b)
  done

let test_hnf_large () =
  (* Z_2^200: orders and membership without ever forming |G| *)
  let dims = Array.make 200 2 in
  let gens = List.init 100 (fun i -> Array.init 200 (fun j -> if j = 2 * i || j = 2 * i + 1 then 1 else 0)) in
  let b = Zmatrix.hnf_basis ~dims gens in
  checkb "order log2 = 100" true (Float.abs (Zmatrix.hnf_order_log2 ~dims b -. 100.) < 1e-9);
  checkb "order int overflows" true (Zmatrix.hnf_order_int ~dims b = None);
  checkb "generator member" true (Zmatrix.hnf_mem ~dims b (List.hd gens));
  checkb "non-member" false (Zmatrix.hnf_mem ~dims b (Array.init 200 (fun j -> if j = 0 then 1 else 0)));
  let d = Zmatrix.hnf_dual ~dims b in
  checkb "dual order log2 = 100" true (Float.abs (Zmatrix.hnf_order_log2 ~dims d -. 100.) < 1e-9)

(* ------------------------------------------------------------------ *)
(* QCheck properties                                                  *)
(* ------------------------------------------------------------------ *)

let qcheck_props =
  let open QCheck in
  [
    Test.make ~name:"gcd divides both" ~count:500
      (pair (int_range (-1000) 1000) (int_range (-1000) 1000))
      (fun (a, b) ->
        let g = Arith.gcd a b in
        (a = 0 && b = 0 && g = 0) || (g > 0 && a mod g = 0 && b mod g = 0));
    Test.make ~name:"egcd bezout" ~count:500
      (pair (int_range (-1000) 1000) (int_range (-1000) 1000))
      (fun (a, b) ->
        let g, x, y = Arith.egcd a b in
        (a * x) + (b * y) = g && g = Arith.gcd a b);
    Test.make ~name:"powmod matches pow" ~count:300
      (triple (int_range 0 20) (int_range 0 10) (int_range 1 1000))
      (fun (b, e, m) ->
        (* qcheck's int_range shrinker can step below the lower bound
           (to 0), so keep the modulus valid rather than divide by it. *)
        let m = max 1 m in
        Arith.powmod b e m = Arith.pow b e mod m);
    Test.make ~name:"invmod inverse" ~count:500
      (pair (int_range 1 500) (int_range 2 500))
      (fun (a, m) ->
        QCheck.assume (Arith.gcd a m = 1);
        a * Arith.invmod a m mod m = 1 mod m);
    Test.make ~name:"isqrt bounds" ~count:500 (int_range 0 1000000) (fun n ->
        let r = Arith.isqrt n in
        (r * r <= n) && ((r + 1) * (r + 1) > n));
    Test.make ~name:"crt solves congruences" ~count:300
      (pair (pair (int_range 0 100) (int_range 1 30)) (pair (int_range 0 100) (int_range 1 30)))
      (fun ((r1, m1), (r2, m2)) ->
        match Arith.crt [ (r1, m1); (r2, m2) ] with
        | x, m -> m = Arith.lcm m1 m2 && (x - r1) mod m1 = 0 && (x - r2) mod m2 = 0
        | exception Not_found -> (r1 - r2) mod Arith.gcd m1 m2 <> 0);
    Test.make ~name:"contfrac last convergent exact" ~count:300
      (pair (int_range 0 10000) (int_range 1 10000))
      (fun (p, q) ->
        match List.rev (Contfrac.convergents p q) with
        | (h, k) :: _ -> h * q = p * k && k >= 1
        | [] -> false);
    Test.make ~name:"multiplicative order divides phi" ~count:200
      (pair (int_range 1 200) (int_range 2 200))
      (fun (a, m) ->
        QCheck.assume (Arith.gcd a m = 1);
        Primes.euler_phi m mod Arith.multiplicative_order a m = 0);
  ]

let () =
  Alcotest.run "numtheory"
    [
      ( "arith",
        [
          Alcotest.test_case "gcd" `Quick test_gcd_basic;
          Alcotest.test_case "egcd" `Quick test_egcd_identity;
          Alcotest.test_case "lcm" `Quick test_lcm;
          Alcotest.test_case "pow" `Quick test_pow;
          Alcotest.test_case "powmod" `Quick test_powmod;
          Alcotest.test_case "emod" `Quick test_emod;
          Alcotest.test_case "invmod" `Quick test_invmod;
          Alcotest.test_case "crt" `Quick test_crt;
          Alcotest.test_case "isqrt" `Quick test_isqrt;
          Alcotest.test_case "ilog2" `Quick test_ilog2;
          Alcotest.test_case "divisors" `Quick test_divisors;
          Alcotest.test_case "multiplicative order" `Quick test_multiplicative_order;
        ] );
      ( "primes",
        [
          Alcotest.test_case "sieve" `Quick test_sieve;
          Alcotest.test_case "is_prime vs sieve" `Quick test_is_prime_small;
          Alcotest.test_case "is_prime larger" `Quick test_is_prime_larger;
          Alcotest.test_case "factorize known" `Quick test_factorize;
          Alcotest.test_case "factorize roundtrip" `Quick test_factorize_roundtrip;
          Alcotest.test_case "euler phi" `Quick test_euler_phi;
          Alcotest.test_case "random prime" `Quick test_random_prime;
        ] );
      ( "contfrac",
        [
          Alcotest.test_case "expand" `Quick test_expand;
          Alcotest.test_case "last convergent exact" `Quick test_convergents_last_exact;
          Alcotest.test_case "convergent quality" `Quick test_convergents_quality;
          Alcotest.test_case "best denominator" `Quick test_best_denominator;
        ] );
      ( "zmatrix",
        [
          Alcotest.test_case "snf identity" `Quick test_snf_identity;
          Alcotest.test_case "snf known" `Quick test_snf_known;
          Alcotest.test_case "snf properties" `Quick test_snf_properties;
          Alcotest.test_case "kernel" `Quick test_kernel;
          Alcotest.test_case "kernel dimension" `Quick test_kernel_dimension;
          Alcotest.test_case "kernel mod" `Quick test_kernel_mod;
          Alcotest.test_case "solve" `Quick test_solve;
          Alcotest.test_case "solve random" `Quick test_solve_random;
          Alcotest.test_case "solve mod" `Quick test_solve_mod;
        ] );
      ( "hnf",
        [
          Alcotest.test_case "vs brute-force closure" `Quick test_hnf_vs_brute;
          Alcotest.test_case "reduce canonical" `Quick test_hnf_reduce_canonical;
          Alcotest.test_case "sample uniform" `Quick test_hnf_sample_uniform;
          Alcotest.test_case "dual" `Quick test_hnf_dual;
          Alcotest.test_case "Z_2^200 scale" `Quick test_hnf_large;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_props);
    ]
