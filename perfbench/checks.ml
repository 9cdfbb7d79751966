(* Output checks applied to every reply and every solve.

   A planted instance is [A = Z_{d_1} x ... x Z_{d_r}] with hidden
   subgroup [H = prod m_i Z_{d_i}].  A Fourier-sampling outcome [y]
   must lie in the annihilator of [H]: [y_i * m_i = 0 mod d_i] for all
   [i].  A solve must return generators of exactly [H]; that is decided
   here without the daemon's own verifier, by integer elimination over
   the lattice spanned by the generators and the relations [d_i e_i]
   (see {!generates_planted}). *)

open Hsp_service

let ( let* ) = Result.bind
let fail fmt = Printf.ksprintf (fun s -> Error s) fmt

let in_annihilator ~dims ~moduli y =
  Array.length y = Array.length dims
  && (let ok = ref true in
      Array.iteri
        (fun i d -> if y.(i) < 0 || y.(i) >= d || y.(i) * moduli.(i) mod d <> 0 then ok := false)
        dims;
      !ok)

(* [gens] generate exactly [H = prod m_i Z_{d_i}] inside [A].

   Containment is coordinatewise ([m_i | x_i]).  Equality then holds
   iff the lattice [L] spanned by [gens] and the [d_i e_i] equals the
   lattice [M = prod m_i Z].  Eliminating column by column (Euclid on
   the rows that are nonzero there) gives a triangular basis of [L]
   whose i-th pivot generates the i-th coordinates of
   [{v in L : v_j = 0 for j < i}]; for [L <= M] each pivot is a
   multiple of [m_i], and [L = M] iff every pivot equals [m_i].
   Entries right of the current column stay reduced mod [d_j], which
   is adding multiples of the still-unused row [d_j e_j]. *)
let generates_planted ~dims ~moduli gens =
  let r = Array.length dims in
  let norm j v = ((v mod dims.(j)) + dims.(j)) mod dims.(j) in
  if not (List.for_all (fun g -> Array.length g = r) gens) then false
  else if
    not
      (List.for_all
         (fun g ->
           let ok = ref true in
           Array.iteri (fun i x -> if norm i x mod moduli.(i) <> 0 then ok := false) g;
           !ok)
         gens)
  then false
  else begin
    let rows =
      ref
        (List.map (fun g -> Array.mapi norm g) gens
        @ List.init r (fun i -> Array.init r (fun j -> if i = j then dims.(i) else 0)))
    in
    let ok = ref true in
    for i = 0 to r - 1 do
      if !ok then begin
        let here, rest = List.partition (fun row -> row.(i) <> 0) !rows in
        (* fold Euclid over the rows with a nonzero i-th entry *)
        let combine p q =
          (* returns (pivot with gcd at i, row with 0 at i) *)
          let p = ref p and q = ref q in
          while !q.(i) <> 0 do
            let k = !p.(i) / !q.(i) in
            let p' = Array.mapi (fun j x -> x - (k * !q.(j))) !p in
            for j = i + 1 to r - 1 do
              p'.(j) <- norm j p'.(j)
            done;
            p := !q;
            q := p'
          done;
          (!p, !q)
        in
        match here with
        | [] -> ok := false
        | first :: others ->
            let pivot, zeroed =
              List.fold_left
                (fun (p, acc) q ->
                  let p, z = combine p q in
                  (p, z :: acc))
                (first, []) others
            in
            if abs pivot.(i) <> moduli.(i) then ok := false;
            rows := List.filter (fun row -> Array.exists (fun x -> x <> 0) row) (zeroed @ rest)
      end
    done;
    !ok
  end

(* ---- replies ---- *)

let int_array v =
  match Jsonv.to_list_opt v with
  | None -> None
  | Some xs ->
      let a = List.filter_map Jsonv.to_int_opt xs in
      if List.length a = List.length xs then Some (Array.of_list a) else None

let int_arrays v =
  match Jsonv.to_list_opt v with
  | None -> None
  | Some xs ->
      let a = List.filter_map int_array xs in
      if List.length a = List.length xs then Some a else None

(* Decode a reply frame and require a successful reply to request [id]. *)
let parse_reply ~id payload =
  let* reply = Jsonv.of_string payload in
  let* () =
    match Jsonv.member "id" reply with
    | Some (Jsonv.Int i) when i = id -> Ok ()
    | _ -> fail "reply id does not match request %d" id
  in
  match Jsonv.member "ok" reply with
  | Some (Jsonv.Bool true) -> Ok reply
  | _ ->
      let msg =
        Option.bind (Jsonv.member "error" reply) (Jsonv.member "message")
        |> Fun.flip Option.bind Jsonv.to_string_opt
        |> Option.value ~default:"no ok field"
      in
      fail "request %d failed: %s" id msg

let field name reply =
  match Jsonv.member name reply with Some v -> Ok v | None -> fail "reply lacks %S" name

let check_sample ~dims ~moduli ~count reply =
  let* v = field "outcomes" reply in
  let* ys = Option.to_result ~none:"outcomes are not int arrays" (int_arrays v) in
  let* () =
    if List.length ys = count then Ok () else fail "%d outcomes for count=%d" (List.length ys) count
  in
  match List.find_opt (fun y -> not (in_annihilator ~dims ~moduli y)) ys with
  | Some y ->
      fail "outcome [%s] is not in the annihilator of the planted subgroup"
        (String.concat "," (List.map string_of_int (Array.to_list y)))
  | None -> Ok ()

let check_solve ~dims ~moduli reply =
  let* () =
    match Jsonv.member "verified" reply with
    | Some (Jsonv.Bool true) -> Ok ()
    | _ -> fail "solve reply not verified"
  in
  let* v = field "generators" reply in
  let* gens = Option.to_result ~none:"generators are not int arrays" (int_arrays v) in
  if generates_planted ~dims ~moduli gens then Ok ()
  else fail "generators do not generate the planted subgroup"
