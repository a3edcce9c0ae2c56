(* A cache level: one entry of the hierarchy stack, processor side first.
   The last level is the memory-side one — its line size is the coherence
   and memory-transfer granularity. *)
type level = {
  bytes : int;
  assoc : int;
  line : int;
  lat : int;  (* hit latency, cycles *)
  mshrs : int;  (* MSHR file capacity at this level *)
}

type t = {
  name : string;
  clock_mhz : int;
  fetch_width : int;
  issue_width : int;
  retire_width : int;
  window : int;
  max_branches : int;
  alus : int;
  fpus : int;
  addr_units : int;
  levels : level list;
  write_buffer : int;
  mem_lat : int;
  remote_lat : int;
  c2c_lat : int;
  hop_cycles : int;
  banks : int;
  bank_busy : int;
  bus_req_occ : int;
  bus_data_occ : int;
  skewed_interleave : bool;
  smp : bool;
  sim_mode : string option;
  faults : Faults.plan option;
}

let levels t = t.levels
let depth t = List.length t.levels

let last_level t =
  match List.rev t.levels with
  | l :: _ -> l
  | [] -> invalid_arg (t.name ^ ": config has no cache levels")

(* coherence / memory-transfer line size: the memory-side level's *)
let line t = (last_level t).line

(* the outstanding-miss bound lp: a miss needs an MSHR at every level, so
   the smallest file in the stack caps memory parallelism *)
let lp t =
  match t.levels with
  | [] -> 0
  | ls -> List.fold_left (fun acc l -> Int.min acc l.mshrs) max_int ls

let base =
  {
    name = "base-500MHz";
    clock_mhz = 500;
    fetch_width = 4;
    issue_width = 4;
    retire_width = 4;
    window = 64;
    max_branches = 16;
    alus = 2;
    fpus = 2;
    addr_units = 2;
    levels =
      [
        { bytes = 16 * 1024; assoc = 1; line = 64; lat = 1; mshrs = 10 };
        { bytes = 64 * 1024; assoc = 4; line = 64; lat = 10; mshrs = 10 };
      ];
    write_buffer = 32;
    mem_lat = 85;
    (* minimum (adjacent-node) latencies; the 2D mesh adds hop_cycles per
       Manhattan hop, reproducing Table 1's 180-260 / 210-310 ranges *)
    remote_lat = 180;
    c2c_lat = 210;
    hop_cycles = 12;
    banks = 4;
    bank_busy = 25;
    bus_req_occ = 2;
    bus_data_occ = 6;
    skewed_interleave = false;
    smp = false;
    sim_mode = None;
    faults = None;
  }

let exemplar_like =
  {
    base with
    name = "exemplar-like";
    clock_mhz = 180;
    window = 56;
    levels = [ { bytes = 1024 * 1024; assoc = 4; line = 32; lat = 2; mshrs = 10 } ];
    mem_lat = 90;
    remote_lat = 110;
    c2c_lat = 140;
    hop_cycles = 0;
    banks = 8;
    bank_busy = 30;
    bus_req_occ = 2;
    bus_data_occ = 8;
    skewed_interleave = true;
    smp = true;
  }

(* A deeper stack than the paper's, for exercising >2-level hierarchies:
   base with a mid-sized L2 and a larger, slower L3, MSHR files shrinking
   toward memory (lp = the L3 file). *)
let three_level =
  {
    base with
    name = "base-3level";
    levels =
      [
        { bytes = 16 * 1024; assoc = 1; line = 64; lat = 1; mshrs = 16 };
        { bytes = 64 * 1024; assoc = 4; line = 64; lat = 10; mshrs = 12 };
        { bytes = 512 * 1024; assoc = 8; line = 64; lat = 30; mshrs = 10 };
      ];
  }

let with_levels levels t = { t with levels }

let map_last f ls =
  match List.rev ls with
  | last :: above -> List.rev (f last :: above)
  | [] -> []

let with_l2 bytes t =
  if depth t >= 2 then { t with levels = map_last (fun l -> { l with bytes }) t.levels }
  else t

let with_mshrs mshrs t =
  { t with levels = List.map (fun l -> { l with mshrs }) t.levels }

let with_line line t =
  { t with levels = List.map (fun l -> { l with line }) t.levels }

let with_sim_mode mode t = { t with sim_mode = Some mode }

let with_faults plan t = { t with faults = Some plan }

(* the plan for runs of this config: an explicit [faults] field wins,
   otherwise the MEMCLUST_FAULTS environment variable (how the repro CLI
   reaches configs constructed deep inside the harness) *)
let resolve_faults t =
  match t.faults with Some p -> Some p | None -> Faults.of_env ()

let ghz t =
  {
    t with
    name = t.name ^ "-1GHz";
    clock_mhz = t.clock_mhz * 2;
    (* the memory system is identical in ns, so every memory-side latency
       doubles in cycles; the L1 stays on the processor clock *)
    levels =
      List.mapi (fun i l -> if i = 0 then l else { l with lat = l.lat * 2 }) t.levels;
    mem_lat = t.mem_lat * 2;
    remote_lat = t.remote_lat * 2;
    c2c_lat = t.c2c_lat * 2;
    hop_cycles = t.hop_cycles * 2;
    bank_busy = t.bank_busy * 2;
    bus_req_occ = t.bus_req_occ * 2;
    bus_data_occ = t.bus_data_occ * 2;
  }

let is_pow2 v = v > 0 && v land (v - 1) = 0

let validate t =
  let err fmt =
    Printf.ksprintf
      (fun reason ->
        Error (Memclust_util.Error.Config_invalid { config = t.name; reason }))
      fmt
  in
  if t.levels = [] then err "at least one cache level is required"
  else if t.fetch_width <= 0 || t.issue_width <= 0 || t.retire_width <= 0 then
    err "pipeline widths must be positive"
  else if t.window <= 0 then err "window must be positive"
  else if t.max_branches <= 0 then err "max_branches must be positive"
  else if t.alus <= 0 || t.fpus <= 0 || t.addr_units <= 0 then
    err "functional-unit counts must be positive"
  else if t.write_buffer <= 0 then err "write buffer must be positive"
  else if t.banks <= 0 then err "bank count must be positive"
  else if t.clock_mhz <= 0 then err "clock must be positive"
  else begin
    let rec check i prev = function
      | [] -> Ok ()
      | l :: rest ->
          if l.mshrs <= 0 then err "L%d: mshrs must be positive" (i + 1)
          else if not (is_pow2 l.line) then
            err "L%d: line size %d is not a power of two" (i + 1) l.line
          else if not (is_pow2 l.bytes) then
            err "L%d: size %d is not a power of two" (i + 1) l.bytes
          else if l.assoc <= 0 then err "L%d: associativity must be positive" (i + 1)
          else if l.bytes < l.line * l.assoc then
            err "L%d: size %d below one set (%d-way x %dB lines)" (i + 1) l.bytes
              l.assoc l.line
          else if l.lat < 0 then err "L%d: negative latency" (i + 1)
          else
            match prev with
            | Some p when p.bytes > l.bytes ->
                err "L%d (%d bytes) is smaller than L%d (%d bytes)" (i + 1) l.bytes
                  i p.bytes
            | Some p when p.line > l.line ->
                err "L%d line (%dB) is smaller than L%d line (%dB)" (i + 1) l.line i
                  p.line
            | _ -> check (i + 1) (Some l) rest
    in
    check 0 None t.levels
  end

let validate_exn t =
  match validate t with
  | Ok () -> ()
  | Error e ->
      invalid_arg ("Config.validate: " ^ Memclust_util.Error.to_string e)

let pp_level ppf (i, l) =
  Format.fprintf ppf "L%d %dKB/%d-way %dB lat %d (%d MSHRs)" (i + 1)
    (l.bytes / 1024) l.assoc l.line l.lat l.mshrs

let pp ppf t =
  Format.fprintf ppf
    "@[<v>%s: %d MHz, %d-wide, window %d, lp %d@,%a@,\
     memory %d/%d/%d cycles (local/remote/c2c), %d banks (%s), %s@]"
    t.name t.clock_mhz t.issue_width t.window (lp t)
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf " + ")
       pp_level)
    (List.mapi (fun i l -> (i, l)) t.levels)
    t.mem_lat t.remote_lat t.c2c_lat t.banks
    (if t.skewed_interleave then "skewed" else "permutation")
    (if t.smp then "SMP shared bus" else "CC-NUMA")
