let rec gcd a b =
  let a = abs a and b = abs b in
  if b = 0 then a else gcd b (a mod b)

let egcd a b =
  (* Iterative extended Euclid keeping Bezout coefficients. *)
  let rec go old_r r old_s s old_t t =
    if r = 0 then (old_r, old_s, old_t)
    else
      let q = old_r / r in
      go r (old_r - (q * r)) s (old_s - (q * s)) t (old_t - (q * t))
  in
  let g, x, y = go a b 1 0 0 1 in
  if g < 0 then (-g, -x, -y) else (g, x, y)

let lcm a b = if a = 0 || b = 0 then 0 else abs (a / gcd a b * b)

let pow b e =
  if e < 0 then invalid_arg "Arith.pow: negative exponent";
  let rec go acc b e =
    if e = 0 then acc
    else if e land 1 = 1 then go (acc * b) (b * b) (e asr 1)
    else go acc (b * b) (e asr 1)
  in
  go 1 b e

let emod a m =
  if m < 1 then invalid_arg "Arith.emod: modulus < 1";
  let r = a mod m in
  if r < 0 then r + m else r

let powmod b e m =
  if e < 0 then invalid_arg "Arith.powmod: negative exponent";
  if m < 1 then invalid_arg "Arith.powmod: modulus < 1";
  let b = emod b m in
  let rec go acc b e =
    if e = 0 then acc
    else if e land 1 = 1 then go (acc * b mod m) (b * b mod m) (e asr 1)
    else go acc (b * b mod m) (e asr 1)
  in
  go (1 mod m) b e

let invmod a m =
  if m < 1 then invalid_arg "Arith.invmod: modulus < 1";
  let g, x, _ = egcd (emod a m) m in
  if g <> 1 then invalid_arg "Arith.invmod: not invertible";
  emod x m

let crt congruences =
  let merge (r1, m1) (r2, m2) =
    let g, p, _ = egcd m1 m2 in
    if (r2 - r1) mod g <> 0 then raise Not_found;
    let l = m1 / g * m2 in
    (* x = r1 + m1 * t with t = (r2 - r1)/g * p  mod  m2/g *)
    let t = emod ((r2 - r1) / g * p) (m2 / g) in
    (emod (r1 + (m1 * t)) l, l)
  in
  match congruences with
  | [] -> (0, 1)
  | c :: cs -> List.fold_left merge c cs

let isqrt n =
  if n < 0 then invalid_arg "Arith.isqrt: negative";
  if n = 0 then 0
  else
    let rec refine x =
      let y = (x + (n / x)) / 2 in
      if y >= x then x else refine y
    in
    let x0 = int_of_float (sqrt (float_of_int n)) + 1 in
    refine x0

let ilog2 n =
  if n < 1 then invalid_arg "Arith.ilog2: n < 1";
  let rec go acc n = if n = 1 then acc else go (acc + 1) (n asr 1) in
  go 0 n

let divisors n =
  if n < 1 then invalid_arg "Arith.divisors: n < 1";
  let small = ref [] and large = ref [] in
  let d = ref 1 in
  while !d * !d <= n do
    if n mod !d = 0 then begin
      small := !d :: !small;
      if !d <> n / !d then large := (n / !d) :: !large
    end;
    incr d
  done;
  List.rev_append !small !large

let multiplicative_order a m =
  if gcd a m <> 1 then invalid_arg "Arith.multiplicative_order: gcd <> 1";
  if m = 1 then 1
  else
    let a = emod a m in
    (* The order divides Carmichael(m); scanning divisors of any multiple
       of the order works, and phi(m) found by brute force would be as
       costly as this direct scan, so scan directly. *)
    let rec go k acc =
      if acc = 1 then k else go (k + 1) (acc * a mod m)
    in
    go 1 a
