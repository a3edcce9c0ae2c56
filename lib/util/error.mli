(** Structured errors for the whole pipeline ("Memclust_error").

    Every recoverable failure that crosses an API boundary — invalid
    configuration, a wedged simulator, a crashed worker domain — is
    described by one of these constructors, each carrying enough context
    to produce an actionable report without re-running anything. (A
    clustering pass that misbehaves is no error: the pipeline rolls it
    back and records it as degraded in its trace.) Internal invariants (things that can only fail
    on a programming error) stay as [assert]; these errors are for
    conditions the surrounding system is expected to survive. *)

type t =
  | Config_invalid of { config : string; reason : string }
      (** A [Config.t] failed validation; [config] is its name. *)
  | Sim_deadlock of {
      cycle : int;
      mode : string;
      reason : string;
      state_dump : string;
    }
      (** The simulator stopped making forward progress. [state_dump] is
          a multi-line snapshot: per-proc PCs, per-level MSHR occupancy,
          pending-event summary. *)
  | Worker_crashed of { task : string; attempts : int; reason : string }
      (** A domain-pool task died even after retry; only that task is
          lost. *)

exception Error of t
(** Carrier for the rare places that must throw across an interface that
    cannot return a [result] (e.g. deep inside the simulator step
    function). Registered with [Printexc] so uncaught copies still print
    readably. *)

val kind : t -> string
(** Stable lowercase tag ("sim-deadlock", ...) for logs and JSON. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val raise_err : t -> 'a
(** [raise_err e] is [raise (Error e)]. *)

val of_exn : task:string -> ?attempts:int -> exn -> t
(** Coerce an arbitrary exception to a structured error: [Error e]
    unwraps to [e], anything else becomes [Worker_crashed] for [task]. *)

val guard : task:string -> (unit -> 'a) -> ('a, t) result
(** Run a thunk, catching any exception into a structured error. *)
