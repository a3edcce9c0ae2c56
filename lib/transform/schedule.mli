(** Miss-packing local scheduling (paper §3.3, second stage of
    window-constraint resolution): reorder the statements of a large loop
    body so that independent leading-reference loads sit next to each other
    at the top of the body, inside one instruction window — a practical
    stand-in for balanced scheduling with explicit window awareness.

    Works at statement granularity on a dependence graph built from scalar
    def/use chains and conservative memory conflicts (same array, same
    region, or any irregular store). Run {!Scalar_replace.apply_innermost}
    first so leading loads are exposed as [tmp = load] statements. *)

open Memclust_ir
open Memclust_locality
open Ast

val pack_misses : Locality.t -> stmt list -> stmt list
(** Reorder the body, hoisting statements that are leading-miss loads as
    early as their dependences allow. Statement sets with control flow
    ([If], nested loops, chases, barriers) are kept in order relative to
    everything (scheduling barriers). *)

val is_miss_load : Locality.t -> stmt -> bool
(** [true] for [tmp = load r] where [r] is a leading reference. *)

val stmts_conflict : stmt -> stmt -> bool
(** The conservative statement-level dependence test used to build the
    scheduling DAG (scalar def/use chains plus affine-disambiguated memory
    conflicts); exposed for the alternative schedulers. *)
