(** Conservative data-dependence legality tests for the loop
    transformations (classical GCD + Banerjee interval tests on affine
    subscripts, with loop bounds evaluated through interval arithmetic).

    The memory-parallelism framework itself is optimistic (it gauges
    performance potential); these tests are the conventional, conservative
    side that decides whether a rewrite is allowed (paper §3.1). Loops
    explicitly marked [parallel] are exempt — the paper makes the same
    assumption for the irregular codes (Em3d, Mp3d, MST). *)

open Memclust_ir
open Ast

type var_range = { r_lo : int; r_hi : int }  (** inclusive *)

val ranges_of_nest :
  params:(string * int) list -> loop list -> (string * var_range) list
(** Interval bounds of each loop variable in a nest (outermost first),
    propagating outer intervals into inner bounds. *)

val trip : params:(string * int) list -> loop -> (int * int) option
(** [trip ~params l] is [Some (first, count)], [l]'s first index value
    and its number of iterations, when both bounds are constant under
    [params]; [None] when a bound names a variable [params] lacks. *)

val unroll_jam_legal :
  params:(string * int) list ->
  outer_ranges:(string * var_range) list ->
  target:loop ->
  factor:int ->
  bool
(** Is it legal to unroll-and-jam [target] by [factor]? True when [target]
    is marked parallel, or when no pair of references in its body can carry
    a dependence at distance 1..factor-1 on [target]'s variable. Any
    irregular (indirect/pointer) store in the body makes the test fail
    (unless parallel). *)

val interchange_legal :
  params:(string * int) list ->
  outer_ranges:(string * var_range) list ->
  outer:loop ->
  inner:loop ->
  bool
(** May [outer] and [inner] (perfectly nested) be interchanged? Checks that
    no dependence has direction (<, >) across the two loops. *)
