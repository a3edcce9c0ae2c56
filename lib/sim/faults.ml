module Rng = Memclust_util.Rng

(* A fault plan is pure data: probabilities and magnitudes, plus the seed
   that makes every injection deterministic. The injector (the mutable
   part) is created per memory system, so two simulations of the same
   (plan, program, config) point see byte-identical fault streams. *)

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

type injector = { plan : plan; rng : Rng.t }

let plan ?(delay_prob = 0.0) ?(delay_cycles = 200) ?(nack_prob = 0.0)
    ?(nack_backoff = 16) ?(nack_max_retries = 4) ?(stall_prob = 0.0)
    ?(stall_cycles = 100) ~seed () =
  let check_prob name p =
    if p < 0.0 || p > 1.0 then
      invalid_arg
        (Printf.sprintf "Faults.plan: %s must be in [0,1], got %g" name p)
  in
  check_prob "delay_prob" delay_prob;
  check_prob "nack_prob" nack_prob;
  check_prob "stall_prob" stall_prob;
  if delay_cycles < 0 || stall_cycles < 0 || nack_backoff < 0 then
    invalid_arg "Faults.plan: cycle magnitudes must be non-negative";
  if nack_max_retries < 0 then
    invalid_arg "Faults.plan: nack_max_retries must be non-negative";
  {
    seed;
    delay_prob;
    delay_cycles;
    nack_prob;
    nack_backoff;
    nack_max_retries;
    stall_prob;
    stall_cycles;
  }

(* the standard chaos plan: [rate] scales all three fault classes *)
let scaled ~seed rate =
  let rate = Float.max 0.0 (Float.min 1.0 rate) in
  plan ~delay_prob:rate ~nack_prob:(rate /. 2.0) ~stall_prob:(rate /. 2.0)
    ~seed ()

let none = plan ~seed:0 ()

let is_active p =
  p.delay_prob > 0.0 || p.nack_prob > 0.0 || p.stall_prob > 0.0

(* "SEED[:RATE]" — e.g. "42" (default 5% rate) or "42:0.2" *)
let of_string s =
  match String.split_on_char ':' (String.trim s) with
  | [ seed ] -> (
      match int_of_string_opt seed with
      | Some seed -> Ok (scaled ~seed 0.05)
      | None -> Error (Printf.sprintf "Faults.of_string: bad seed %S" s))
  | [ seed; rate ] -> (
      match (int_of_string_opt seed, float_of_string_opt rate) with
      | Some seed, Some rate when rate >= 0.0 && rate <= 1.0 ->
          Ok (scaled ~seed rate)
      | _ ->
          Error
            (Printf.sprintf
               "Faults.of_string: expected SEED[:RATE] with RATE in [0,1], \
                got %S"
               s))
  | _ -> Error (Printf.sprintf "Faults.of_string: expected SEED[:RATE], got %S" s)

let to_string p =
  Printf.sprintf "%d:%g (delay %g/%dc, nack %g/%dc*2^k<=%d, stall %g/%dc)"
    p.seed p.delay_prob p.delay_prob p.delay_cycles p.nack_prob p.nack_backoff
    p.nack_max_retries p.stall_prob p.stall_cycles

let of_env () =
  match Sys.getenv_opt "MEMCLUST_FAULTS" with
  | None | Some "" -> None
  | Some s -> (
      match of_string s with
      | Ok p -> Some p
      | Error m -> invalid_arg m)

let make plan = { plan; rng = Rng.create plan.seed }

type decision = {
  pre_delay : int;  (* NACK backoff served before the bank access *)
  bank_extra : int;  (* transient stall: extra bank occupancy *)
  fill_delay : int;  (* slow fill: extra cycles on the reply *)
}

let no_fault = { pre_delay = 0; bank_extra = 0; fill_delay = 0 }

let hit rng prob = prob > 0.0 && Rng.float rng 1.0 < prob

(* Decide the faults for one memory request. Draw order is fixed
   (NACK retries, then stall, then delay) so the stream depends only on
   the plan seed and the request sequence. *)
let inject t =
  let p = t.plan in
  if not (is_active p) then no_fault
  else begin
    (* NACKed response: the requester retries with bounded exponential
       backoff; the k-th retry waits backoff * 2^k cycles. After
       nack_max_retries the home node must accept (forward progress). *)
    let rec backoff k acc =
      if k >= p.nack_max_retries then acc
      else if hit t.rng p.nack_prob then
        backoff (k + 1) (acc + (p.nack_backoff lsl k))
      else acc
    in
    let pre_delay = backoff 0 0 in
    let bank_extra =
      if hit t.rng p.stall_prob then 1 + Rng.int t.rng p.stall_cycles else 0
    in
    let fill_delay =
      if hit t.rng p.delay_prob then 1 + Rng.int t.rng p.delay_cycles else 0
    in
    { pre_delay; bank_extra; fill_delay }
  end
