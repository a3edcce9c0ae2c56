(** Inner-loop unrolling (paper §3.3, first stage of window-constraint
    resolution): replicate the innermost body so that the independent
    misses of several iterations are exposed to the local scheduler inside
    one instruction window. Copies share scalars (sequential semantics of
    the same loop), so loop-carried scalar recurrences remain correct.

    {!unroll} is the core this transformation shares with
    {!Unroll_jam.apply}: the shifted, renamed body copies, the main loop
    over them and the leftover loop. Inner unrolling concatenates the
    copies; unroll-and-jam fuses them. *)

open Memclust_ir
open Ast

val write_first_scalars : stmt list -> string list
(** The scalars written in the statements ({!Program.scalars_written},
    same order) whose first access, in a pre-order walk of the
    statements, is a write: the scalars each copy of an unrolled body can
    own under a name of its own. *)

val unroll :
  params:(string * int) list ->
  tag:char ->
  stamp:int ->
  factor:int ->
  renamed:string list ->
  combine:(stmt list list -> stmt list) ->
  loop ->
  (loop * loop option, string) result
(** [unroll ~tag ~stamp ~factor ~renamed ~combine l] builds [factor]
    copies of [l]'s body, the [k]-th shifted by [k] iterations and, for
    [k > 0], with the scalars in [renamed] renamed by {!Subst.copy_name}
    [~tag ~stamp ~copy:k]. It returns the main loop, stepping [factor]
    iterations at a time over [combine copies], and the leftover loop
    over the last [count mod factor] iterations if there are any.
    Refuses a loop whose bounds are not constant under [params] or with
    fewer than [factor] iterations. [factor] must be at least 2. *)

val apply :
  ?params:(string * int) list -> stamp:int -> factor:int -> loop ->
  (stmt list, string) result
(** [apply ~stamp ~factor l] unrolls [l] in place by [factor]: {!unroll}
    with tag ['k'], renaming {!write_first_scalars} and concatenating the
    copies; returns the main loop plus the leftover loop. A [factor] of 1
    or less returns [l] unchanged. The caller renumbers afterwards. *)
