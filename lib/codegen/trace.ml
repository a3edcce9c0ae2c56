type kind = Int_op | Fp_op | Load | Store | Branch | Barrier_op | Prefetch_op

let kind_code = function
  | Int_op -> 0
  | Fp_op -> 1
  | Load -> 2
  | Store -> 3
  | Branch -> 4
  | Barrier_op -> 5
  | Prefetch_op -> 6

let bad_code c = invalid_arg (Printf.sprintf "Trace.kind_of_code %d" c)
[@@inline never]

let[@inline] kind_of_code = function
  | 0 -> Int_op
  | 1 -> Fp_op
  | 2 -> Load
  | 3 -> Store
  | 4 -> Branch
  | 5 -> Barrier_op
  | 6 -> Prefetch_op
  | c -> bad_code c

(* One record per instruction, [record] bytes at offset
   [record * (i land chunk_mask)] of chunk [i lsr chunk_bits], in native
   byte order:

     0  aux   int64
     8  dep1  int32, distance back to the producer (0 = none)
    12  dep2  int32, likewise
    16  ref   int32
    20  kind  one byte (3 bytes of padding follow)

   Chunks hold [chunk] records each and are filled in place: [push]
   allocates one when the length reaches a multiple of [chunk], and only
   the table of chunk pointers is ever doubled, so no record is copied
   and a trace holds at most one partly filled chunk.

   The compiler primitives below read and write the fields in place
   without boxing, whichever module the accessor is inlined into. The
   helpers are inlined into the accessors, so each accessor is one
   call deep in every build. The accessors themselves are not forced
   inline: marking them [@inline] removed [Core.fetch]'s calls but
   grew [Core], which moved the code linked after it and made perfbench
   [compile], which never runs [Core], about 6% slower. *)
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"
external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32"

let record = 24
let max_length = 0x7fff_ffff
let chunk_bits = 16
let chunk = 1 lsl chunk_bits
let chunk_mask = chunk - 1

(* [counts.(kind_code k)] is the number of [k] instructions pushed *)
type t = { mutable n : int; mutable chunks : Bytes.t array; counts : int array }

let create () = { n = 0; chunks = [||]; counts = Array.make 7 0 }

let length t = t.n

(* called when [t.n] is a multiple of [chunk]: chunks below
   [t.n lsr chunk_bits] are full. [Bytes.create] initializes nothing;
   every record below [n] has been written by [push] *)
let add_chunk t =
  let c = t.n lsr chunk_bits in
  if c = Array.length t.chunks then begin
    let table = Array.make (Int.max 1 (2 * c)) Bytes.empty in
    Array.blit t.chunks 0 table 0 c;
    t.chunks <- table
  end;
  t.chunks.(c) <- Bytes.create (chunk * record)
[@@inline never]

let bad_dep i d =
  invalid_arg
    (Printf.sprintf
       "Trace.push: instruction %d depends on %d (must be -1 or an earlier \
        index)"
       i d)

let bad_ref i r =
  invalid_arg
    (Printf.sprintf
       "Trace.push: instruction %d has reference id %d (must be in [0, 2^31))"
       i r)

let too_long i =
  invalid_arg
    (Printf.sprintf
       "Trace.push: instruction %d would make the trace longer than 2^31 - 1 \
        instructions"
       i)

let distance i d = Int32.of_int (if d < 0 then 0 else i - d)

let push t ~kind ~aux ~dep1 ~dep2 ~ref_ =
  let i = t.n in
  if i >= max_length then too_long i;
  (* the simulator's consumer lists rely on every dependence pointing
     backwards: a forward or self edge would never be released *)
  if dep1 < -1 || dep1 >= i then bad_dep i dep1;
  if dep2 < -1 || dep2 >= i then bad_dep i dep2;
  if ref_ < 0 || ref_ > 0x7fff_ffff then bad_ref i ref_;
  if i land chunk_mask = 0 then add_chunk t;
  let buf = t.chunks.(i lsr chunk_bits) in
  let o = (i land chunk_mask) * record in
  let c = kind_code kind in
  set64 buf o (Int64.of_int aux);
  set32 buf (o + 8) (distance i dep1);
  set32 buf (o + 12) (distance i dep2);
  set32 buf (o + 16) (Int32.of_int ref_);
  Bytes.unsafe_set buf (o + 20) (Char.unsafe_chr c);
  Array.unsafe_set t.counts c (Array.unsafe_get t.counts c + 1);
  t.n <- i + 1;
  i

let set_length_for_testing t n = t.n <- n

let[@inline] buf t i = t.chunks.(i lsr chunk_bits)
let[@inline] offset i = (i land chunk_mask) * record
let kind t i =
  kind_of_code (Char.code (Bytes.get (buf t i) (offset i + 20)))

let aux t i = Int64.to_int (get64 (buf t i) (offset i))

let[@inline] dep t i off =
  let d = Int32.to_int (get32 (buf t i) (offset i + off)) in
  if d = 0 then -1 else i - d

let dep1 t i = dep t i 8
let dep2 t i = dep t i 12
let ref_id t i = Int32.to_int (get32 (buf t i) (offset i + 16))
let count_kind t k = t.counts.(kind_code k)
