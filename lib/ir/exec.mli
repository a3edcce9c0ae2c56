(** Reference executor for IR programs.

    The executor interprets a program over a {!Data} store and, through an
    {!emitter}, reports every dynamic operation together with its register
    dataflow. Two uses:

    - with {!null_emitter} it is the semantics oracle (the property tests
      compare final stores of base vs transformed programs);
    - with a trace-building emitter (see [Memclust_codegen.Lower]) it
      produces the dynamic instruction stream consumed by the simulator,
      including the address dependences that serialize pointer chasing and
      indirect accesses.

    Dependence tokens are integers chosen by the emitter ([-1] = no
    dependence, i.e. the value is already available).

    A run allocates its closure tree and nothing per operation: values
    travel as a {!Data} tag plus an unboxed payload, and only {!run_from}'s
    returned {!state} boxes the scalars. *)

open Ast

type emitter = {
  e_int : int -> int -> int;
      (** 1-cycle integer/address operation; arguments = the (up to two)
          dependence tokens, [-1] = no dependence; result = token of the
          new operation. Every emission site passes its tokens positionally
          rather than as a list: the executor runs once per dynamic
          operation, so the per-op list allocation was measurable. *)
  e_fp : lat:int -> int -> int -> int;  (** floating-point operation *)
  e_load : ref_id:int -> addr:int -> int -> int -> int;
  e_store : ref_id:int -> addr:int -> int -> int -> int;
  e_prefetch : ref_id:int -> addr:int -> int -> int -> unit;
      (** non-binding prefetch hint *)
  e_branch : int -> int -> unit;  (** conditional branch / loop back-edge *)
  e_barrier : unit -> unit;  (** global synchronization *)
  e_set_proc : int -> unit;
      (** subsequent operations belong to this processor (parallel loops) *)
}

val null_emitter : emitter
(** Emits nothing; every token is [-1]. *)

exception Limit_exceeded
(** Raised when more than [max_ops] dynamic operations are executed. *)

val run :
  ?emit:emitter ->
  ?nprocs:int ->
  ?max_ops:int ->
  program ->
  Data.t ->
  unit
(** Execute the program, mutating the store. With [nprocs > 1] the
    iterations of each outermost [parallel] loop are block-distributed:
    operations from iteration chunks are attributed to their processor via
    [e_set_proc], and a barrier is emitted after the loop. [max_ops]
    (default 200 million) bounds runaway programs. *)

type state = {
  scalars : (string * value) list;
      (** the bound scalar variables, in no particular order *)
  ops : int;  (** dynamic operations executed so far *)
}
(** Where a run of top-level statements stopped: enough to run the
    statements after them over the same store as if in one run. Loop
    indices and chase pointers are never bound between top-level
    statements, so the scalars and the op count are all of it. *)

val start : state
(** No scalar bound, no operation executed: the state {!run} starts from. *)

val run_from :
  ?emit:emitter ->
  ?nprocs:int ->
  ?max_ops:int ->
  state ->
  program ->
  Data.t ->
  state
(** [run_from st p data] executes [p]'s body as {!run} does, but with the
    scalars of [st] bound (their dependence token is [-1]: the producer
    ran earlier) and [st.ops] operations already counted against
    [max_ops], and returns the state it stops in. Running statements
    [s1] then, from the state returned, [s2] over the same store emits
    the same operations at the same addresses (only a dependence on a
    scalar [s1] assigned reads [-1]), raises the same {!Limit_exceeded}
    and leaves the same store and scalars as running [s1 @ s2] in one
    go. *)

val fp_latency : binop -> int
(** Functional-unit latency used for each arithmetic operator (Table 1:
    1 cycle for ALU ops, 3 for most FPU ops, 16 for FP divide). *)
