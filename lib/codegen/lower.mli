(** Lowering: run a program through the IR executor and materialize one
    dynamic instruction trace per processor.

    Register dataflow crosses into the trace as producer indices, so
    address dependences (pointer chasing, indirect indexing) serialize in
    the simulator exactly as the dependence framework predicts. Values
    produced on one processor and consumed on another (rare: only values
    live into a parallel loop) are treated as available — their latency is
    not modeled, but barriers order the phases that communicate. *)

open Memclust_ir

type t = {
  traces : Trace.t array;  (** one per processor *)
  barriers : int;  (** number of global barriers emitted *)
}

val build : ?nprocs:int -> Ast.program -> Data.t -> t
(** Executes the program (mutating [data]) and returns the traces.
    Parallel loop iterations are block-distributed over [nprocs]
    (default 1). Raises [Invalid_argument] (see {!check_nprocs}) unless
    [nprocs] is in [\[1, 63\]]: a dependence token packs the processor
    into 6 bits. *)

val check_nprocs : int -> unit
(** Raises [Invalid_argument], naming the valid range [\[1, 63\]], for a
    processor count {!build} rejects; does nothing otherwise. *)

val total_instructions : t -> int
