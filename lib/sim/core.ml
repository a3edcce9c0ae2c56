open Memclust_util
open Memclust_codegen

type shared = {
  h : Hierarchy.shared;
  reached : int array;
  mutable barrier_epoch : int;
}

(* Where a cycle's unused retire slots are charged: [Uncharged] when the
   whole trace has retired and only the write buffer is draining. *)
type stall = Uncharged | Cpu_stall | Data_stall | Sync_stall

type t = {
  proc : int;
  trace : Trace.t;
  len : int;  (* of the trace *)
  sh : shared;
  h : Hierarchy.t;  (* this processor's cache/MSHR stack *)
  ring_mask : int;
      (* ring capacity - 1; capacity is the next power of two >= cfg.window
         so the per-slot index reduction is a mask, not a division (the
         issue scan does it billions of times). Any window-length index
         range still maps to distinct slots. *)
  (* reorder buffer: ring over trace indices [head, tail) *)
  kinds : Trace.kind array;  (* per slot, decoded once by [fetch] *)
  auxs : int array;  (* likewise *)
  state : int array;  (* 0 = waiting, 1 = scheduled/completed *)
  done_at : int array;
  mutable head : int;
  mutable tail : int;
  (* dataflow, per slot: how many of the instruction's in-window producers
     have not issued yet, and the latest result time of those that have
     (an instruction can issue once [npend = 0] and [ready_at <= now]) *)
  npend : int array;
  ready_at : int array;
  (* consumer lists: edge [2c + k] is consumer [c]'s dependence [k]
     (0 = dep1, 1 = dep2). [cons] holds, per producer slot, the first edge
     waiting on that producer (-1 = none) and [enext], indexed by
     [edge land emask] (which is the consumer's slot, twice, plus [k]),
     the next one. An instruction has at most two edges, so registering
     never allocates. Every instruction releases its list (and resets
     [cons]) before it retires, so a reused slot starts with none. *)
  cons : int array;
  enext : int array;
  emask : int;
  (* the ready list: the unissued in-window instructions with no
     unresolved producer and a result time at most [horizon] cycles away
     when they were released, as a singly-linked list in trace order
     ([pend_next] is indexed by slot) *)
  mutable pend_head : int;  (* trace index, -1 = none *)
  mutable pend_last : int;
  pend_next : int array;
  (* released instructions due later than [horizon] cycles out, keyed by
     [ready_at]; they join the ready list in the cycle they become due.
     Every [ready_at] is [now] or an issued-unretired instruction's
     [done_at], so [next_event]'s window scan already bounds every entry:
     the event loop never skips a cycle where one could issue. *)
  wait_heap : Pqueue.t;
  mutable branches : int;
  (* write buffer *)
  wpending : int Queue.t;
  winflight : Pqueue.t;  (* completion times of draining writes (value 0) *)
  wstalled : bool array;  (* per-slot: store already counted a wbuf-full stall *)
  has_barriers : bool;
      (* every instruction kind except Barrier_op needs a functional unit
         to issue, so barrier-free traces can stop the issue scan as soon
         as all units are claimed *)
  (* event-driven support: did the last [step] change simulation state
     (as opposed to only accumulating per-cycle statistics)? *)
  mutable progressed : bool;
  (* what [replay_idle] repeats of the last step: where its retire slots
     were charged, and how many loads it retried on full MSHRs *)
  mutable stall : stall;
  mutable retries : int;
  (* statistics (pipeline-owned; memory-side counters live in [h]) *)
  bd : Breakdown.t;
  mutable retired_count : int;
  mutable wbuf_full_events : int;
}

let make_shared cfg ~nprocs ~home =
  {
    h = Hierarchy.make_shared cfg ~nprocs ~home;
    reached = Array.make nprocs 0;
    barrier_epoch = 0;
  }

let cfg_of t = t.sh.h.Hierarchy.cfg

let create (sh : shared) ~proc trace =
  let cfg = sh.h.Hierarchy.cfg in
  let cap =
    let rec up n = if n >= cfg.Config.window then n else up (n * 2) in
    up 1
  in
  let h = Hierarchy.create sh.h ~proc in
  {
    proc;
    trace;
    len = Trace.length trace;
    sh;
    h;
    ring_mask = cap - 1;
    kinds = Array.make cap Trace.Int_op;
    auxs = Array.make cap 0;
    state = Array.make cap 0;
    done_at = Array.make cap 0;
    head = 0;
    tail = 0;
    npend = Array.make cap 0;
    ready_at = Array.make cap 0;
    cons = Array.make cap (-1);
    enext = Array.make (2 * cap) (-1);
    emask = (2 * cap) - 1;
    pend_head = -1;
    pend_last = -1;
    pend_next = Array.make cap (-1);
    wait_heap = Pqueue.create ();
    branches = 0;
    wpending = Queue.create ();
    winflight = Pqueue.create ();
    wstalled = Array.make cap false;
    has_barriers = Trace.count_kind trace Trace.Barrier_op > 0;
    progressed = false;
    stall = Uncharged;
    retries = 0;
    bd = Breakdown.create ();
    retired_count = 0;
    wbuf_full_events = 0;
  }

let slot t i = i land t.ring_mask

(* ------------------------------------------------------------------ *)

let cleanup_mshrs t ~now =
  if Hierarchy.cleanup t.h ~now then t.progressed <- true

let drain_wbuf t ~now =
  while Pqueue.min_prio t.winflight <= now do
    Pqueue.drop_min t.winflight;
    t.progressed <- true
  done;
  if not (Queue.is_empty t.wpending) then begin
    let addr = Queue.peek t.wpending in
    match Hierarchy.write t.h ~now addr with
    | Some completion ->
        ignore (Queue.pop t.wpending);
        Pqueue.push t.winflight completion 0;
        t.progressed <- true
    | None -> ()
  end

let wbuf_occupancy t = Queue.length t.wpending + Pqueue.length t.winflight

let barrier_satisfied t aux =
  let reached = t.sh.reached in
  let ok = ref true in
  for p = 0 to Array.length reached - 1 do
    if reached.(p) < aux then ok := false
  done;
  !ok

let charge t stall w =
  let bd = t.bd in
  match stall with
  | Uncharged -> ()
  | Cpu_stall -> bd.Breakdown.cpu_stall <- bd.Breakdown.cpu_stall +. w
  | Data_stall -> bd.Breakdown.data_stall <- bd.Breakdown.data_stall +. w
  | Sync_stall -> bd.Breakdown.sync_stall <- bd.Breakdown.sync_stall +. w

(* Consumers released more than [horizon] cycles before they are due wait
   in [wait_heap]; nearer ones go straight into the ready list, where the
   issue scan re-tests them in place, which is cheaper than a heap round
   trip for a wait of a few cycles on an ALU or FPU result. *)
let horizon = 32

(* Make [c], which has no unresolved producer left, visible to the issue
   scan from cycle [ready_at] on: into the ready list, searched forward
   from entry [after] (a listed instruction older than [c], or -1 for the
   head), or into [wait_heap] when it is due after [now + horizon]. *)
let enqueue t ~now ~after c =
  let at = t.ready_at.(slot t c) in
  if at > now + horizon then Pqueue.push t.wait_heap at c
  else begin
    let prev = ref after in
    let cur = ref (if after < 0 then t.pend_head else t.pend_next.(slot t after)) in
    while !cur >= 0 && !cur < c do
      prev := !cur;
      cur := t.pend_next.(slot t !cur)
    done;
    t.pend_next.(slot t c) <- !cur;
    if !prev < 0 then t.pend_head <- c else t.pend_next.(slot t !prev) <- c;
    if !cur < 0 then t.pend_last <- c
  end

(* The producer in slot [s] has its result at [at]: resolve every edge
   waiting on it, and enqueue each consumer left with no unresolved
   producer (searching the ready list from [after]). *)
let release t ~now ~after s at =
  let e = ref t.cons.(s) in
  t.cons.(s) <- -1;
  while !e >= 0 do
    let c = !e lsr 1 in
    let sc = slot t c in
    if at > t.ready_at.(sc) then t.ready_at.(sc) <- at;
    t.npend.(sc) <- t.npend.(sc) - 1;
    if t.npend.(sc) = 0 then enqueue t ~now ~after c;
    e := t.enext.(!e land t.emask)
  done

let retire t ~now =
  let cfg = cfg_of t in
  let width = cfg.Config.retire_width in
  let r = ref 0 in
  let stall = ref Cpu_stall in
  let continue_ = ref true in
  while !continue_ && !r < width && t.head < t.tail do
    let i = t.head in
    let s = slot t i in
    match t.kinds.(s) with
    | Trace.Barrier_op ->
        let b = t.auxs.(s) in
        if t.sh.reached.(t.proc) < b then begin
          t.sh.reached.(t.proc) <- b;
          (* shared state changed: other processors may now pass the
             barrier, so this cycle cannot be skipped over, and cores
             sleeping on a barrier must look again *)
          t.sh.barrier_epoch <- t.sh.barrier_epoch + 1;
          t.progressed <- true
        end;
        if barrier_satisfied t b then begin
          t.head <- i + 1;
          t.retired_count <- t.retired_count + 1;
          t.progressed <- true;
          (* a barrier that retires without issuing resolves its
             consumers now (one that issued already has) *)
          release t ~now ~after:(-1) s now;
          incr r
        end
        else begin
          stall := Sync_stall;
          continue_ := false
        end
    | kind ->
        if t.state.(s) = 1 && t.done_at.(s) <= now then begin
          t.head <- i + 1;
          t.retired_count <- t.retired_count + 1;
          t.progressed <- true;
          incr r
        end
        else begin
          stall :=
            (match kind with
            | Trace.Load | Trace.Store -> Data_stall
            | Trace.Int_op | Trace.Fp_op | Trace.Branch | Trace.Prefetch_op ->
                Cpu_stall
            | Trace.Barrier_op -> Sync_stall);
          continue_ := false
        end
  done;
  t.stall <- !stall;
  let busy_frac = float_of_int !r /. float_of_int width in
  t.bd.Breakdown.busy <- t.bd.Breakdown.busy +. busy_frac;
  let stall_frac = 1.0 -. busy_frac in
  if stall_frac > 0.0 then charge t !stall stall_frac

(* Move every waiting instruction that is now due into the ready list.
   Each instruction is enqueued once, so the popped indices are distinct;
   sorted, they merge into the (also sorted) list in one forward pass.
   Barriers that retired without issuing are dropped. *)
let wake t ~now =
  let batch = ref [] in
  while Pqueue.min_prio t.wait_heap <= now do
    let i = Pqueue.min_value t.wait_heap in
    Pqueue.drop_min t.wait_heap;
    if i >= t.head then batch := i :: !batch
  done;
  match !batch with
  | [] -> ()
  | b ->
      ignore
        (List.fold_left
           (fun after c ->
             enqueue t ~now ~after c;
             c)
           (-1) (List.sort Int.compare b))

(* Instruction [i] (slot [s]) issues with its result at [done_at.(s)]:
   release its consumers, searching the ready list from [i] on. *)
let mark_issued t ~now i s =
  t.state.(s) <- 1;
  t.progressed <- true;
  release t ~now ~after:i s t.done_at.(s)

(* The scan walks the ready list in trace order. An instruction can issue
   exactly when every producer has issued (or, for a barrier, retired)
   with a result time at or before [now], and then it is on the list: it
   was enqueued when its last producer resolved, either straight into the
   list or into [wait_heap], which [wake] has emptied up to [now]. Entries
   not yet due are skipped without side effects, so the scan makes the
   same issue attempts in the same order as a scan over every unissued
   instruction. An instruction that issues releases its consumers, which
   are younger: those due this cycle (behind a store, prefetch or
   barrier) are linked in behind the cursor and issue in the same pass.
   An issued entry is unlinked; an entry below [head] is a barrier that
   retired without issuing (the only kind that can); retirement is in
   order, so such entries form a prefix of the list and are dropped
   first, which also keeps [fetch]'s slot reuse from clobbering a live
   link. *)
let issue t ~now =
  while t.pend_head >= 0 && t.pend_head < t.head do
    t.pend_head <- t.pend_next.(slot t t.pend_head)
  done;
  if t.pend_head < 0 then t.pend_last <- -1;
  wake t ~now;
  let cfg = cfg_of t in
  let issue_width = cfg.Config.issue_width in
  let alus = cfg.Config.alus
  and fpus = cfg.Config.fpus
  and addr_units = cfg.Config.addr_units in
  let no_barriers = not t.has_barriers in
  let issued = ref 0 in
  let alu = ref 0 and fpu = ref 0 and mem_u = ref 0 in
  let prev = ref (-1) in
  let cur = ref t.pend_head in
  while
    !cur >= 0
    && !issued < issue_width
    && not (no_barriers && !alu >= alus && !fpu >= fpus && !mem_u >= addr_units)
  do
    let i = !cur in
    let s = slot t i in
    let before = !issued in
    let remove = ref false in
    if t.ready_at.(s) <= now then begin
      let kind = t.kinds.(s) in
      let unit_free =
        match kind with
        | Trace.Int_op | Trace.Branch -> !alu < alus
        | Trace.Fp_op -> !fpu < fpus
        | Trace.Load | Trace.Store | Trace.Prefetch_op -> !mem_u < addr_units
        | Trace.Barrier_op -> true
      in
      if unit_free then
        match kind with
        | Trace.Int_op ->
            incr alu;
            t.done_at.(s) <- now + 1;
            mark_issued t ~now i s;
            incr issued
        | Trace.Branch ->
            incr alu;
            t.done_at.(s) <- now + 1;
            if t.branches > 0 then t.branches <- t.branches - 1;
            mark_issued t ~now i s;
            incr issued
        | Trace.Fp_op ->
            incr fpu;
            t.done_at.(s) <- now + t.auxs.(s);
            mark_issued t ~now i s;
            incr issued
        | Trace.Load -> (
            match Hierarchy.read t.h ~now t.auxs.(s) with
            | Some ready ->
                incr mem_u;
                t.done_at.(s) <- ready;
                mark_issued t ~now i s;
                incr issued
            | None ->
                (* MSHRs full: retry next cycle *)
                t.retries <- t.retries + 1)
        | Trace.Store ->
            if wbuf_occupancy t >= cfg.Config.write_buffer then begin
              (* count each store that stalls on a full write buffer
                 once, not once per retry cycle *)
              if not t.wstalled.(s) then begin
                t.wstalled.(s) <- true;
                t.wbuf_full_events <- t.wbuf_full_events + 1
              end
            end
            else begin
              incr mem_u;
              Queue.push t.auxs.(s) t.wpending;
              t.done_at.(s) <- now;
              mark_issued t ~now i s;
              incr issued
            end
        | Trace.Prefetch_op ->
            incr mem_u;
            Hierarchy.prefetch t.h ~now t.auxs.(s);
            t.done_at.(s) <- now;
            mark_issued t ~now i s;
            incr issued
        | Trace.Barrier_op ->
            t.done_at.(s) <- now;
            t.state.(s) <- 1;
            t.progressed <- true;
            release t ~now ~after:i s now;
            remove := true
    end;
    if !issued > before then remove := true;
    (* read after the releases above, which may have linked consumers in
       right behind [i] *)
    let next = t.pend_next.(s) in
    if !remove then begin
      if !prev < 0 then t.pend_head <- next
      else t.pend_next.(slot t !prev) <- next;
      if next < 0 then t.pend_last <- !prev
    end
    else prev := i;
    cur := next
  done

(* Register instruction [i] (slot [s]) on its dependence [k], producer
   [d]: nothing when [d] is -1 or retired, its result time when it has
   issued, otherwise an edge on its consumer list. Trace.push guarantees
   [d < i], so an in-window [d] is a live older slot. *)
let depend t i s k d =
  if d >= t.head then begin
    let sd = slot t d in
    if t.state.(sd) = 1 then begin
      if t.done_at.(sd) > t.ready_at.(s) then t.ready_at.(s) <- t.done_at.(sd)
    end
    else begin
      let e = (2 * i) + k in
      t.enext.(e land t.emask) <- t.cons.(sd);
      t.cons.(sd) <- e;
      t.npend.(s) <- t.npend.(s) + 1
    end
  end

let fetch t ~now =
  let cfg = cfg_of t in
  let len = t.len in
  let fetched = ref 0 in
  while
    t.tail < len
    && t.tail - t.head < cfg.Config.window
    && !fetched < cfg.Config.fetch_width
    && t.branches < cfg.Config.max_branches
  do
    let i = t.tail in
    let s = slot t i in
    let kind = Trace.kind t.trace i in
    t.kinds.(s) <- kind;
    t.auxs.(s) <- Trace.aux t.trace i;
    t.state.(s) <- 0;
    t.done_at.(s) <- 0;
    t.wstalled.(s) <- false;
    t.npend.(s) <- 0;
    t.ready_at.(s) <- 0;
    let d1 = Trace.dep1 t.trace i in
    depend t i s 0 d1;
    let d2 = Trace.dep2 t.trace i in
    if d2 <> d1 then depend t i s 1 d2;
    (* [issue] ran earlier this cycle and dropped every retired entry, so
       appending reuses no live link *)
    if t.npend.(s) = 0 then enqueue t ~now ~after:t.pend_last i;
    (match kind with
    | Trace.Branch -> t.branches <- t.branches + 1
    | _ -> ());
    t.tail <- i + 1;
    t.progressed <- true;
    incr fetched
  done

let finished t =
  t.head >= t.len
  && Queue.is_empty t.wpending
  && Pqueue.is_empty t.winflight

let step t ~now =
  t.progressed <- false;
  t.stall <- Uncharged;
  t.retries <- 0;
  cleanup_mshrs t ~now;
  drain_wbuf t ~now;
  if t.head < t.len then retire t ~now;
  issue t ~now;
  fetch t ~now

let progressed t = t.progressed

(* A step with no progress leaves the core in a fixed point: every
   subsequent cycle up to (but excluding) its next completion event, or
   until the shared barrier state changes, re-runs the identical step.
   Its only effects are statistics: it retired nothing, so its whole
   retire width (1.0) went to one stall category, and every level miss
   it counted came from a load retried on full MSHRs, which missed every
   level (a hit at any level, or a coalesced in-flight miss, would have
   issued). Re-adding 1.0 per cycle and adding [times] at once give the
   same float: the stall fields hold small multiples of 1/retire_width. *)
let replay_idle t ~times =
  if times > 0 then begin
    charge t t.stall (float_of_int times);
    Hierarchy.replay_retry t.h ~retries:t.retries ~times
  end

(* Earliest future time any [<= now] comparison inside [step] can flip:
   an in-flight miss completing, a buffered write draining, or an issued
   instruction's result becoming available (which can unblock retire and
   dependent issues). Barrier release is not a timed event — it is
   triggered by another core's arrival, which bumps
   [shared.barrier_epoch] for the machine loop to observe. Results are
   found by scanning the window, at most [cfg.window] slots: an unissued
   instruction keeps the [done_at] of 0 that [fetch] gave it, and an
   issued barrier's is the cycle it issued, so only issued, unretired
   results can lie after [now]. *)
let next_event t ~now =
  let ne = ref max_int in
  let mshr = Hierarchy.next_completion t.h in
  if mshr > now then ne := mshr;
  let write = Pqueue.min_prio t.winflight in
  if write > now && write < !ne then ne := write;
  for i = t.head to t.tail - 1 do
    let at = t.done_at.(slot t i) in
    if at > now && at < !ne then ne := at
  done;
  !ne

let breakdown t = t.bd

let mshr_read_occupancy t = Hierarchy.read_occupancy t.h
let mshr_total_occupancy t = Hierarchy.total_occupancy t.h

let l2_misses t = Hierarchy.mem_misses t.h
let read_misses t = Hierarchy.read_misses t.h
let read_miss_latency_sum t = Hierarchy.read_miss_latency_sum t.h
let retired_instructions t = t.retired_count

let l1_misses t = Hierarchy.l1_misses t.h
let mshr_full_events t = Hierarchy.mshr_full_events t.h
let mshr_refusals t = Hierarchy.refusals t.h
let wbuf_full_events t = t.wbuf_full_events

let prefetches t = Hierarchy.prefetches t.h
let prefetch_misses t = Hierarchy.prefetch_misses t.h
let late_prefetches t = Hierarchy.late_prefetches t.h

let level_stats t = Hierarchy.level_stats t.h
let hierarchy_depth t = Hierarchy.depth t.h
let mshr_occupancy_by_level t = Hierarchy.mshr_occupancy_by_level t.h

let trace t = t.trace
let position t = t.head
