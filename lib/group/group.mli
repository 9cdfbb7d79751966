(** Finite black-box groups and the structural algorithms the paper's
    quantum algorithms consume.

    A group is a first-class value bundling the black-box operations of
    Babai–Szemerédi (multiplication, inversion, identity, equality)
    together with a generating set and a string encoding used only for
    hashing.  Elements are polymorphic; concrete families (permutation,
    dihedral, matrix, Heisenberg, wreath...) live in sibling modules.

    The generic algorithms below operate by explicit enumeration — the
    honest substitution for the Beals–Babai Las Vegas toolbox on the
    group sizes a state-vector quantum simulator can drive (see
    DESIGN.md §2).  [elements] raises if the group exceeds
    [max_enumeration]. *)

type 'a t = {
  name : string;
  mul : 'a -> 'a -> 'a;
  inv : 'a -> 'a;
  id : 'a;
  equal : 'a -> 'a -> bool;
  repr : 'a -> string;  (** injective encoding, used as hash key *)
  generators : 'a list;
}

val max_enumeration : int
(** Guard on {!elements}: 1_000_000. *)

val make :
  name:string ->
  mul:('a -> 'a -> 'a) ->
  inv:('a -> 'a) ->
  id:'a ->
  equal:('a -> 'a -> bool) ->
  repr:('a -> string) ->
  generators:'a list ->
  'a t

val pow : 'a t -> 'a -> int -> 'a
(** [pow g x k] for any integer [k] (negative powers via inverse),
    by binary exponentiation. *)

val commutator : 'a t -> 'a -> 'a -> 'a
(** [x y x^-1 y^-1]. *)

val conjugate : 'a t -> by:'a -> 'a -> 'a
(** [conjugate g ~by:x y = x y x^-1]. *)

val elements : 'a t -> 'a list
(** All elements, by breadth-first closure of the generators.
    Deterministic order (BFS layers).  @raise Invalid_argument if the
    group exceeds {!max_enumeration}. *)

val order : 'a t -> int

val element_order : 'a t -> 'a -> int
(** Order of a single element (successive powers).
    @raise Invalid_argument if it exceeds {!max_enumeration}. *)

val closure : 'a t -> 'a list -> 'a list
(** Subgroup generated by the given elements (BFS; same guard as
    {!elements}). *)

val closure_set : 'a t -> 'a list -> (string, 'a) Hashtbl.t
(** Same, as a hash table keyed by [repr] for O(1) membership. *)

val mem : 'a t -> (string, 'a) Hashtbl.t -> 'a -> bool
(** Membership in a closure set. *)

val subgroup_mem : 'a t -> 'a list -> 'a -> bool
(** [subgroup_mem g gens x]: membership of [x] in [<gens>]
    (enumerates the subgroup). *)

val normal_closure : 'a t -> 'a list -> 'a list
(** Smallest normal subgroup of [g] containing the given elements:
    closure under multiplication and conjugation by the generators
    of [g]. *)

val is_abelian : 'a t -> bool
val is_normal : 'a t -> 'a list -> bool
(** [is_normal g h_gens]: is [<h_gens>] normal in [g]?  Checks
    conjugates of the subgroup generators by the group generators. *)

val subgroup_equal : 'a t -> 'a list -> 'a list -> bool
(** Do two generator lists generate the same subgroup? *)

val center : 'a t -> 'a list
val centralizer : 'a t -> 'a list -> 'a list
(** Elements commuting with every element of the given list. *)

val normalizer : 'a t -> 'a list -> 'a list
(** [normalizer g h_elements]: elements [x] with [x H x^-1 = H], for
    [H] given by its element list. *)

val conjugacy_classes : 'a t -> 'a list list
(** Partition of the group into conjugacy classes, each class listed
    once (identity's class first). *)

val abelianization : 'a t -> 'a t
(** [G / G'], the largest Abelian quotient. *)

val is_perfect : 'a t -> bool
(** [G' = G]. *)

val is_simple : 'a t -> bool
(** No proper non-trivial normal subgroup (checked via normal closures
    of single elements; requires enumerability).  The trivial group is
    not considered simple. *)

val commutator_subgroup : 'a t -> 'a list
(** The derived subgroup [G'] = normal closure of the generators'
    commutators. *)

val derived_series : 'a t -> 'a list list
(** [G >= G' >= G'' >= ...] down to the point where it stabilises;
    each entry is the element list of the subgroup. *)

val is_solvable : 'a t -> bool

val coset_reps : 'a t -> 'a list -> 'a list
(** Left coset representatives of the subgroup given by its element
    list; the identity represents the subgroup itself and comes
    first. *)

val quotient : 'a t -> 'a list -> 'a t
(** [quotient g n_elements] for a normal subgroup [N]: the factor group
    [G/N] whose carrier is canonical coset representatives (the BFS-
    least element of each coset).  Generators are the images of [g]'s
    generators.  Requires [g] enumerable. *)

val quotient_map : 'a t -> 'a list -> 'a -> 'a
(** The canonical projection [G -> G/N] underlying {!quotient}. *)

val direct_product : 'a t -> 'b t -> ('a * 'b) t

val subgroup : ?name:string -> 'a t -> 'a list -> 'a t
(** The subgroup generated by the given elements, packaged as a group
    in its own right. *)

val sylow_subgroup : 'a t -> int -> 'a list
(** Generators-closure (full element list) of a Sylow [p]-subgroup,
    found by the normaliser-growing algorithm.
    @raise Invalid_argument if [p] does not divide the group order. *)

val composition_series : 'a t -> 'a list list
(** For a solvable group: a composition series
    [G = G_1 > G_2 > ... > G_t = 1] (element lists) with factors of
    prime order, obtained by refining the derived series.
    @raise Invalid_argument on non-solvable input. *)

val composition_factors : 'a t -> int list
(** Orders of the composition factors of a solvable group (multiset,
    in series order): the primes whose product is [|G|]. *)

val random_element : Random.State.t -> 'a t -> 'a
(** Uniform over the enumerated group. *)

val random_subgroup_gens : Random.State.t -> ?max_gens:int -> 'a t -> 'a list
(** A few uniform random elements — generators of a random subgroup
    (distribution is whatever the closure of uniform picks gives;
    useful for tests). *)

val exponent_of : 'a t -> int
(** lcm of the element orders of the generators' closure: the group
    exponent. *)
