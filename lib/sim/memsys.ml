type kind = Local | Remote | Dirty_remote

type t = {
  cfg : Config.t;
  nodes : int;
  side : int;  (* of the mesh the nodes are laid out on *)
  (* split-transaction bus: the address (request) and data (reply) paths
     arbitrate independently, so replies do not block new requests *)
  abus_free : int array;  (* per node *)
  dbus_free : int array;
  bank_free : int array array;  (* node x bank *)
  mutable bus_busy_total : int;
  mutable bank_busy_total : int;
  (* fault injection (None on the happy path: zero cost, bit-identical) *)
  inj : Faults.injector option;
}

(* 2D-mesh Manhattan distance between two nodes laid out row-major on the
   smallest square mesh holding them, [side] nodes wide *)
let mesh_side nprocs =
  Int.max 1 (int_of_float (Float.ceil (sqrt (float_of_int nprocs))))

let hops ~side a b =
  if a = b then 0
  else abs ((a mod side) - (b mod side)) + abs ((a / side) - (b / side))

let mesh_hops ~nprocs a b = hops ~side:(mesh_side nprocs) a b

let create (cfg : Config.t) ~nprocs =
  let nodes = if cfg.Config.smp then 1 else nprocs in
  {
    cfg;
    nodes;
    side = mesh_side nodes;
    abus_free = Array.make nodes 0;
    dbus_free = Array.make nodes 0;
    bank_free = Array.make_matrix nodes cfg.Config.banks 0;
    bus_busy_total = 0;
    bank_busy_total = 0;
    inj =
      (match Config.resolve_faults cfg with
      | Some p when Faults.is_active p -> Some (Faults.make p)
      | _ -> None);
  }

(* Bank selection: permutation interleaving XOR-folds higher line bits so
   power-of-two strides spread across banks (Sohi); skewed interleaving
   adds a line-dependent skew (Harper & Jump). *)
let bank_of t line =
  let b = t.cfg.Config.banks in
  if t.cfg.Config.skewed_interleave then (line + (line / b)) mod b
  else (line lxor (line lsr 4) lxor (line lsr 8)) mod b

let request t ~proc ~home ~kind ~line ~now =
  let cfg = t.cfg in
  let fault =
    match t.inj with Some i -> Faults.inject i | None -> Faults.no_fault
  in
  (* a NACKed request spends its backoff before re-arbitrating the bus *)
  let now = now + fault.Faults.pre_delay in
  let req_node = if cfg.Config.smp then 0 else proc in
  let home_node = if cfg.Config.smp then 0 else home in
  (* request on the requester's address bus *)
  let t1 = Int.max now t.abus_free.(req_node) + cfg.Config.bus_req_occ in
  t.abus_free.(req_node) <- t1;
  t.bus_busy_total <- t.bus_busy_total + cfg.Config.bus_req_occ;
  (* home bank occupancy (a transient stall keeps the bank busy longer,
     back-pressuring later requests to the same bank) *)
  let b = bank_of t line in
  let bank_occ = cfg.Config.bank_busy + fault.Faults.bank_extra in
  let t2 = Int.max t1 t.bank_free.(home_node).(b) + bank_occ in
  t.bank_free.(home_node).(b) <- t2;
  t.bank_busy_total <- t.bank_busy_total + bank_occ;
  (* reply on the requester's data bus *)
  let t3 = Int.max t2 t.dbus_free.(req_node) + cfg.Config.bus_data_occ in
  t.dbus_free.(req_node) <- t3;
  t.bus_busy_total <- t.bus_busy_total + cfg.Config.bus_data_occ;
  let hops =
    if cfg.Config.smp || kind = Local then 0
    else hops ~side:t.side proc home
  in
  let total_uncontended =
    match kind with
    | Local -> cfg.Config.mem_lat
    | Remote -> cfg.Config.remote_lat + (hops * cfg.Config.hop_cycles)
    | Dirty_remote -> cfg.Config.c2c_lat + (hops * cfg.Config.hop_cycles)
  in
  let occupancies =
    cfg.Config.bus_req_occ + cfg.Config.bank_busy + cfg.Config.bus_data_occ
  in
  t3 + Int.max 0 (total_uncontended - occupancies) + fault.Faults.fill_delay

let bus_busy t = t.bus_busy_total
let bank_busy t = t.bank_busy_total

let bus_utilization t ~upto =
  if upto <= 0 then 0.0
  else float_of_int t.bus_busy_total /. float_of_int (upto * t.nodes)

let bank_utilization t ~upto =
  if upto <= 0 then 0.0
  else
    float_of_int t.bank_busy_total
    /. float_of_int (upto * t.nodes * t.cfg.Config.banks)
