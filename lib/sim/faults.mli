(** Deterministic memory-system fault injection.

    A {!plan} describes an unreliable memory system as probabilities and
    magnitudes for three fault classes, all drawn from one seeded
    {!Memclust_util.Rng} stream:

    - {b delayed fills} — the reply takes up to [delay_cycles] extra;
    - {b NACKed responses} — the home node refuses the request and the
      requester retries with bounded exponential backoff
      ([nack_backoff * 2^k] for the k-th retry, at most
      [nack_max_retries] rounds, after which the request must be
      accepted so forward progress is preserved);
    - {b transient bank stalls} — the target bank stays busy up to
      [stall_cycles] extra, back-pressuring later requests to it.

    Fault streams are deterministic: the same (plan, request sequence)
    produces the same injections, so faulty runs are exactly
    reproducible from the seed. A plan with all probabilities zero is
    bit-identical to no plan at all. *)

type plan = {
  seed : int;
  delay_prob : float;
  delay_cycles : int;
  nack_prob : float;
  nack_backoff : int;
  nack_max_retries : int;
  stall_prob : float;
  stall_cycles : int;
}

type injector
(** The mutable side: plan + RNG position. One per memory system
    instance. *)

val plan :
  ?delay_prob:float ->
  ?delay_cycles:int ->
  ?nack_prob:float ->
  ?nack_backoff:int ->
  ?nack_max_retries:int ->
  ?stall_prob:float ->
  ?stall_cycles:int ->
  seed:int ->
  unit ->
  plan
(** All probabilities default to 0 (no faults); magnitudes default to
    200-cycle max delay, 16-cycle base backoff with 4 retries, 100-cycle
    max stall. Raises [Invalid_argument] naming any out-of-range value. *)

val scaled : seed:int -> float -> plan
(** [scaled ~seed rate] is the standard chaos plan: delay probability
    [rate], NACK and stall probabilities [rate/2], default magnitudes.
    [rate] is clamped to [0,1]. *)

val none : plan
(** All-zero probabilities: injects nothing. *)

val is_active : plan -> bool
(** False iff every probability is zero. *)

val of_string : string -> (plan, string) result
(** Parse ["SEED"] or ["SEED:RATE"] into [scaled ~seed rate]
    (rate defaults to 0.05). *)

val to_string : plan -> string

val of_env : unit -> plan option
(** The [MEMCLUST_FAULTS] environment variable in {!of_string} syntax;
    [None] when unset or empty. Raises [Invalid_argument] on a
    malformed value. *)

val make : plan -> injector

type decision = {
  pre_delay : int;  (** NACK backoff served before the bank access *)
  bank_extra : int;  (** transient stall: extra bank occupancy *)
  fill_delay : int;  (** slow fill: extra cycles on the reply *)
}

val no_fault : decision

val inject : injector -> decision
(** Decide the faults for the next memory request, advancing the RNG in
    a fixed draw order. *)
