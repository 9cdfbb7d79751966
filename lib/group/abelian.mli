(** Structure of finite Abelian groups (Theorem 1, Cheung–Mosca).

    [decompose] writes an Abelian black-box group as a direct sum of
    cyclic groups of prime-power order, with explicit mutually inverse
    maps between group elements and exponent tuples.  Every reduction
    in the paper ("... is an instance of the Abelian HSP") funnels
    through this: once a group is decomposed, Fourier sampling happens
    over [Z_{d_1} x ... x Z_{d_r}] with the [d_i] below.

    The paper obtains the decomposition by quantum means on black-box
    groups of astronomical order; at simulator scale we compute it
    classically from the generators (the constructive basis theorem).
    For each prime [p], the candidates are the [p]-parts of the
    generators.  A candidate of largest order [p^k] modulo the span [S]
    built so far is corrected by an element of [S] into one of order
    [p^k] meeting [S] trivially, and joins the basis.  The span's
    element-to-exponents table serves as that correction oracle and,
    once [S] is the whole group, as [to_exponents], so the group is
    enumerated exactly once: about one multiplication and one encoding
    per element.  The span is held to {!Group.max_enumeration}. *)

type 'a t = {
  group : 'a Group.t;
  basis : 'a array;  (** independent generators *)
  dims : int array;  (** [dims.(i)] = order of [basis.(i)], prime powers *)
  to_exponents : 'a -> int array;
      (** discrete logarithm w.r.t. the basis; total on group elements,
          [Invalid_argument] outside the group *)
  of_exponents : int array -> 'a;
}

val decompose : 'a Group.t -> 'a t
(** [dims] are grouped by prime, largest first within each prime.
    @raise Invalid_argument if the group is not Abelian or exceeds
    {!Group.max_enumeration}. *)

val decompose_subgroup : 'a Group.t -> 'a list -> 'a t
(** Decompose the (Abelian) subgroup generated by the given elements
    of an ambient (possibly non-Abelian) group.
    @raise Invalid_argument if the generators do not commute or the
    subgroup exceeds {!Group.max_enumeration}. *)

val order : 'a t -> int
