open Ast

(* Every array and region keeps its elements in two flat buffers: a tag
   byte per slot and an 8-byte payload per slot (IEEE bits of a float, or
   the int / pointer). The buffers are opaque to the GC: a store is never
   scanned, a write neither boxes nor goes through [caml_modify], and a
   read boxes the one [value] it returns. The primitives below read and
   write the payloads in place without boxing the int64. *)
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

let tag_float = '\000'
let tag_int = '\001'
let tag_ptr = '\002'

type slots = { tags : Bytes.t; words : Bytes.t }

let make_slots n tag = { tags = Bytes.make n tag; words = Bytes.make (8 * n) '\000' }
let length s = Bytes.length s.tags
let copy_slots s = { tags = Bytes.copy s.tags; words = Bytes.copy s.words }

let read s i =
  let t = Bytes.get s.tags i and w = get64 s.words (8 * i) in
  if t = tag_float then Vfloat (Int64.float_of_bits w)
  else if t = tag_int then Vint (Int64.to_int w)
  else Vptr (Int64.to_int w)

let write s i v =
  match v with
  | Vfloat x ->
      Bytes.set s.tags i tag_float;
      set64 s.words (8 * i) (Int64.bits_of_float x)
  | Vint n ->
      Bytes.set s.tags i tag_int;
      set64 s.words (8 * i) (Int64.of_int n)
  | Vptr a ->
      Bytes.set s.tags i tag_ptr;
      set64 s.words (8 * i) (Int64.of_int a)

(* Tags must match; ints and pointers must be identical, floats within a
   relative [eps] or both NaN (so a store holding a NaN equals its own
   copy). A NaN against a number fails the [eps] test. *)
let slots_equal eps a b =
  let n = length a in
  n = length b
  &&
  let rec go i =
    i >= n
    ||
    let t = Bytes.get a.tags i in
    t = Bytes.get b.tags i
    && (let o = 8 * i in
        if t = tag_float then
          let x = Int64.float_of_bits (get64 a.words o)
          and y = Int64.float_of_bits (get64 b.words o) in
          Float.equal x y
          || Float.is_finite x && Float.is_finite y
             &&
             let scale = Float.max 1.0 (Float.max (Float.abs x) (Float.abs y)) in
             Float.abs (x -. y) <= eps *. scale
        else (get64 a.words o : int64) = get64 b.words o)
    && go (i + 1)
  in
  go 0

type array_store = {
  as_base : int;
  as_elem : int;
  as_data : slots;
}

type region_store = {
  rs_base : int;
  rs_node : int;  (* bytes per node *)
  rs_slots : int;  (* 8-byte field slots per node *)
  rs_data : slots;  (* node_count * rs_slots *)
}

type t = {
  arrays : (string, array_store) Hashtbl.t;
  regions : (string, region_store) Hashtbl.t;
  (* base address / byte size of every object in ascending base order, for
     home-node computation. Two parallel arrays so [home_of_addr] — called
     once per simulated L2 miss — can binary-search without allocating. *)
  ext_base : int array;
  ext_bytes : int array;
}

let round_up v align = (v + align - 1) / align * align

let create ?(base = 0x10000) ?(align = 64) (p : program) =
  let arrays = Hashtbl.create 16 in
  let regions = Hashtbl.create 16 in
  let cursor = ref base in
  let extents = ref [] in
  let alloc bytes =
    let b = round_up !cursor align in
    cursor := b + bytes;
    extents := (b, bytes) :: !extents;
    b
  in
  List.iter
    (fun a ->
      let bytes = a.length * a.elem_size in
      let as_base = alloc bytes in
      Hashtbl.replace arrays a.a_name
        { as_base; as_elem = a.elem_size; as_data = make_slots a.length tag_float })
    p.arrays;
  List.iter
    (fun r ->
      let bytes = r.node_count * r.node_size in
      let rs_base = alloc bytes in
      let slots = r.node_size / 8 in
      Hashtbl.replace regions r.r_name
        {
          rs_base;
          rs_node = r.node_size;
          rs_slots = slots;
          rs_data = make_slots (r.node_count * slots) tag_int;
        })
    p.regions;
  (* [alloc]'s cursor only moves forward, so reversing the accumulation
     order yields ascending bases *)
  let exts = Array.of_list (List.rev !extents) in
  {
    arrays;
    regions;
    ext_base = Array.map fst exts;
    ext_bytes = Array.map snd exts;
  }

let find_array t name =
  match Hashtbl.find_opt t.arrays name with
  | Some a -> a
  | None -> invalid_arg (Printf.sprintf "Data: unknown array %s" name)

let find_region t name =
  match Hashtbl.find_opt t.regions name with
  | Some r -> r
  | None -> invalid_arg (Printf.sprintf "Data: unknown region %s" name)

let clamp len i = if i < 0 then 0 else if i >= len then len - 1 else i

type handle = array_store

let handle = find_array
let h_addr a i = a.as_base + (clamp (length a.as_data) i * a.as_elem)
let h_get a i = read a.as_data (clamp (length a.as_data) i)
let h_set a i v = write a.as_data (clamp (length a.as_data) i) v
let get t name i = h_get (find_array t name) i
let set t name i v = h_set (find_array t name) i v
let addr_of t name i = h_addr (find_array t name) i
let array_base t name = (find_array t name).as_base

let array_bytes t name =
  let a = find_array t name in
  length a.as_data * a.as_elem

let node_addr t name i =
  let r = find_region t name in
  r.rs_base + (i * r.rs_node)

let node_ptr t name i = Vptr (node_addr t name i)

let slot_of_r r name ~ptr ~field =
  if ptr = 0 then invalid_arg "Data: null pointer dereference";
  let off = ptr - r.rs_base in
  let node = off / r.rs_node in
  let count = length r.rs_data / r.rs_slots in
  if off < 0 || node >= count || off mod r.rs_node <> 0 then
    invalid_arg
      (Printf.sprintf "Data: pointer %#x is not a node of region %s" ptr name);
  if field < 0 || field >= r.rs_slots then
    invalid_arg (Printf.sprintf "Data: field %d outside region %s nodes" field name);
  (node * r.rs_slots) + field

let slot_of t name ~ptr ~field =
  let r = find_region t name in
  (r, slot_of_r r name ~ptr ~field)

let field_get t name ~ptr ~field =
  let r, slot = slot_of t name ~ptr ~field in
  read r.rs_data slot

let field_set t name ~ptr ~field v =
  let r, slot = slot_of t name ~ptr ~field in
  write r.rs_data slot v

let field_addr t name ~ptr ~field =
  let r, _ = slot_of t name ~ptr ~field in
  ignore r;
  ptr + (field * 8)

type rhandle = { rh_name : string; rh : region_store }

let rhandle t name = { rh_name = name; rh = find_region t name }

let rh_get h ~ptr ~field = read h.rh.rs_data (slot_of_r h.rh h.rh_name ~ptr ~field)

let rh_set h ~ptr ~field v =
  write h.rh.rs_data (slot_of_r h.rh h.rh_name ~ptr ~field) v

let rh_addr h ~ptr ~field =
  ignore (slot_of_r h.rh h.rh_name ~ptr ~field);
  ptr + (field * 8)

let copy t =
  let arrays = Hashtbl.create (Hashtbl.length t.arrays) in
  Hashtbl.iter
    (fun k a -> Hashtbl.replace arrays k { a with as_data = copy_slots a.as_data })
    t.arrays;
  let regions = Hashtbl.create (Hashtbl.length t.regions) in
  Hashtbl.iter
    (fun k r -> Hashtbl.replace regions k { r with rs_data = copy_slots r.rs_data })
    t.regions;
  { arrays; regions; ext_base = t.ext_base; ext_bytes = t.ext_bytes }

let equal ?(eps = 1e-9) t1 t2 =
  let arrays_ok =
    Hashtbl.fold
      (fun k a acc ->
        acc
        &&
        match Hashtbl.find_opt t2.arrays k with
        | None -> false
        | Some b -> slots_equal eps a.as_data b.as_data)
      t1.arrays true
  in
  let regions_ok =
    Hashtbl.fold
      (fun k r acc ->
        acc
        &&
        match Hashtbl.find_opt t2.regions k with
        | None -> false
        | Some s -> slots_equal eps r.rs_data s.rs_data)
      t1.regions true
  in
  arrays_ok && regions_ok
  && Hashtbl.length t1.arrays = Hashtbl.length t2.arrays
  && Hashtbl.length t1.regions = Hashtbl.length t2.regions

let home_of_addr t ~nprocs addr =
  if nprocs <= 1 then 0
  else begin
    (* greatest extent with base <= addr; bases are ascending *)
    let lo = ref 0 and hi = ref (Array.length t.ext_base - 1) in
    let found = ref (-1) in
    while !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      if t.ext_base.(mid) <= addr then begin
        found := mid;
        lo := mid + 1
      end
      else hi := mid - 1
    done;
    let i = !found in
    if i < 0 || addr >= t.ext_base.(i) + t.ext_bytes.(i) then 0
    else begin
      let base = t.ext_base.(i) and bytes = t.ext_bytes.(i) in
      let chunk = (bytes + nprocs - 1) / nprocs in
      Int.min (nprocs - 1) ((addr - base) / Int.max 1 chunk)
    end
  end
