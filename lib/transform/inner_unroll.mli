(** Inner-loop unrolling (paper §3.3, first stage of window-constraint
    resolution): replicate the innermost body so that the independent
    misses of several iterations are exposed to the local scheduler inside
    one instruction window. Copies share scalars (sequential semantics of
    the same loop), so loop-carried scalar recurrences remain correct. *)

open Memclust_ir
open Ast

val apply :
  ?params:(string * int) list -> stamp:int -> factor:int -> loop ->
  (stmt list, string) result
(** [apply ~stamp ~factor l] unrolls [l] in place by [factor] (copies
    renamed as in {!Unroll_jam.apply}, tag ['k']); returns main loop plus
    postlude. Requires constant bounds under [params] and at least
    [factor] iterations. The caller renumbers afterwards. *)
