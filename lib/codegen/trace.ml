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

(* One record per instruction, [record] bytes at offset [record * i], in
   native byte order:

     0  aux   int64
     8  dep1  int32, distance back to the producer (0 = none)
    12  dep2  int32, likewise
    16  ref   int32
    20  kind  one byte (3 bytes of padding follow)

   The compiler primitives below read and write the fields in place
   without boxing, whichever module the accessor is inlined into. The
   helpers are inlined into the accessors, so each accessor is one
   small function: the release build inlines it into its callers in
   [Core] and [Lower], and a build with [-opaque] (the dev profile)
   makes it one call. *)
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"
external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32"

let record = 24
let max_length = 0x7fff_ffff

type t = { mutable n : int; mutable buf : Bytes.t }

let initial = 4096

let create () = { n = 0; buf = Bytes.create (initial * record) }

let length t = t.n

(* [Bytes.extend] leaves the new tail uninitialized; every record below
   [n] has been written by [push] *)
let grow t =
  let cap = Bytes.length t.buf in
  if t.n * record = cap then t.buf <- Bytes.extend t.buf 0 cap

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
  grow t;
  let o = i * record in
  set64 t.buf o (Int64.of_int aux);
  set32 t.buf (o + 8) (distance i dep1);
  set32 t.buf (o + 12) (distance i dep2);
  set32 t.buf (o + 16) (Int32.of_int ref_);
  Bytes.unsafe_set t.buf (o + 20) (Char.unsafe_chr (kind_code kind));
  t.n <- i + 1;
  i

let set_length_for_testing t n = t.n <- n

let[@inline] kind_byte t i = Char.code (Bytes.get t.buf ((i * record) + 20))
let kind t i = kind_of_code (kind_byte t i)
let aux t i = Int64.to_int (get64 t.buf (i * record))

let[@inline] dep t i off =
  let d = Int32.to_int (get32 t.buf ((i * record) + off)) in
  if d = 0 then -1 else i - d

let dep1 t i = dep t i 8
let dep2 t i = dep t i 12
let ref_id t i = Int32.to_int (get32 t.buf ((i * record) + 16))

let count_kind t k =
  let c = kind_code k in
  let acc = ref 0 in
  for i = 0 to t.n - 1 do
    if kind_byte t i = c then incr acc
  done;
  !acc
