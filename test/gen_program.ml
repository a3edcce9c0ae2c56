(* QCheck generator of small random loop-nest programs, used to fuzz the
   transformation pipeline end to end: whatever the driver does to these,
   executing base and transformed programs on the same data must agree.

   The generated programs are always well-formed (validated) and total:
   - one or two 2-deep counted loop nests over a handful of declared
     arrays; a second nest has its own loop variables and reads a scalar
     assigned between the nests, so a program can be cut before it;
   - regular affine accesses (with random row/column/diagonal shapes and
     constant offsets), plus optional indirect accesses through a
     non-negative integer index array;
   - accumulator statements, temporaries, stores and conditionals. *)

open Memclust_ir
open Ast

type cfg = {
  rows : int;
  cols : int;
  stmts : int;  (* inner-body statements *)
  seed : int;
  nests : int;  (* top-level nests: 1 or 2 *)
}

let cfg_gen =
  QCheck.Gen.(
    map3
      (fun (rows, cols) (stmts, seed) nests -> { rows; cols; stmts; seed; nests })
      (pair (int_range 3 24) (int_range 3 24))
      (pair (int_range 1 5) (int_range 0 1_000_000))
      (int_range 1 2))

let arrays = [ "m0"; "m1"; "m2" ]

(* The outer and inner loop variables of a nest. *)
type vars = { j : string; i : string }

(* A random affine subscript within bounds for any (j,i) in range. Stores
   are kept row-major (with small constant offsets) so that the legality
   tests usually accept unroll-and-jam — otherwise the fuzz property would
   mostly exercise the "reject" path; loads roam over more shapes. *)
let subscript ?(store = false) rng ~v ~rows ~cols =
  let open Memclust_util in
  let row_major off =
    Affine.add
      (Affine.scale cols (Affine.var v.j))
      (Affine.add (Affine.var v.i) (Affine.const off))
  in
  if store then row_major (Rng.int rng 4)
  else
    match Rng.int rng 10 with
    | 0 | 1 | 2 | 3 -> row_major 0
    | 4 | 5 | 6 -> row_major (Rng.int rng 8)
    | 7 | 8 ->
        (* previous row (outer-carried reuse) *)
        Affine.add
          (Affine.scale cols (Affine.var v.j))
          (Affine.add (Affine.var v.i) (Affine.const cols))
    | _ ->
        (* column-major *)
        Affine.add (Affine.scale rows (Affine.var v.i)) (Affine.var v.j)

let value_expr rng ~v ~rows ~cols depth =
  let open Memclust_util in
  let rec go depth =
    if depth = 0 then
      match Rng.int rng 3 with
      | 0 -> Const (Vfloat (Rng.float rng 2.0))
      | 1 -> Load { ref_id = 0; target = Direct { array = List.nth arrays (Rng.int rng 3); index = subscript rng ~v ~rows ~cols } }
      | _ -> Ivar v.i
    else
      match Rng.int rng 6 with
      | 0 | 1 -> Binop (Add, go (depth - 1), go (depth - 1))
      | 2 | 3 -> Binop (Mul, go (depth - 1), go (depth - 1))
      | 4 -> Binop (Sub, go (depth - 1), go (depth - 1))
      | _ ->
          (* indirect access through the index array *)
          Load
            {
              ref_id = 0;
              target =
                Indirect
                  {
                    array = "m2";
                    index =
                      Load
                        {
                          ref_id = 0;
                          target = Direct { array = "idx"; index = subscript rng ~v ~rows ~cols };
                        };
                  };
            }
  in
  go depth

let body rng ~v ~rows ~cols ~stmts =
  let open Memclust_util in
  List.init stmts (fun k ->
      match Rng.int rng 4 with
      | 0 ->
          (* accumulate into a per-row cell *)
          Assign
            ( Lmem { ref_id = 0; target = Direct { array = "acc"; index = Affine.var v.j } },
              Binop
                ( Add,
                  Load { ref_id = 0; target = Direct { array = "acc"; index = Affine.var v.j } },
                  value_expr rng ~v ~rows ~cols 1 ) )
      | 1 ->
          (* temporary then store *)
          Assign (Lscalar (Printf.sprintf "t%d" k), value_expr rng ~v ~rows ~cols 2)
      | 2 ->
          Assign
            ( Lmem
                { ref_id = 0;
                  target = Direct { array = "out"; index = subscript ~store:true rng ~v ~rows ~cols }
                },
              value_expr rng ~v ~rows ~cols 1 )
      | _ ->
          (* conditional store, row-major so rows stay independent *)
          If
            ( Binop (Lt, Ivar v.i, Const (Vint (Rng.int rng 20))),
              [
                Assign
                  ( Lmem
                      {
                        ref_id = 0;
                        target =
                          Direct
                            { array = "out2"; index = subscript ~store:true rng ~v ~rows ~cols };
                      },
                    value_expr rng ~v ~rows ~cols 1 );
              ],
              [] ))

let nest ~v ~rows ~cols inner =
  Loop
    {
      var = v.j;
      lo = Affine.const 0;
      hi = Affine.const rows;
      step = 1;
      parallel = false;
      body =
        [
          Loop
            {
              var = v.i;
              lo = Affine.const 0;
              hi = Affine.const cols;
              step = 1;
              parallel = false;
              body = inner;
            };
        ];
    }

let build (c : cfg) =
  let open Memclust_util in
  let rng = Rng.create c.seed in
  let n = c.rows * c.cols in
  let first = { j = "j"; i = "i" } in
  let first_nest =
    nest ~v:first ~rows:c.rows ~cols:c.cols
      (body rng ~v:first ~rows:c.rows ~cols:c.cols ~stmts:c.stmts)
  in
  (* a second nest, after a top-level scalar it reads *)
  let rest =
    if c.nests < 2 then []
    else
      let v = { j = "j2"; i = "i2" } in
      let load array index = Load { ref_id = 0; target = Direct { array; index } } in
      [
        Assign
          ( Lscalar "carry",
            Binop (Add, load "acc" (Affine.const 0), Const (Vfloat 1.0)) );
        nest ~v ~rows:c.rows ~cols:c.cols
          (Assign
             ( Lmem
                 {
                   ref_id = 0;
                   target = Direct { array = "out"; index = subscript ~store:true rng ~v ~rows:c.rows ~cols:c.cols };
                 },
               Binop (Mul, Scalar "carry", value_expr rng ~v ~rows:c.rows ~cols:c.cols 1) )
          :: body rng ~v ~rows:c.rows ~cols:c.cols ~stmts:c.stmts);
      ]
  in
  let p =
    {
      p_name = Printf.sprintf "fuzz-%d" c.seed;
      params = [];
      arrays =
        [
          { a_name = "m0"; elem_size = 8; length = n + c.rows + c.cols + 8 };
          { a_name = "m1"; elem_size = 8; length = n + c.rows + c.cols + 8 };
          { a_name = "m2"; elem_size = 8; length = n + c.rows + c.cols + 8 };
          { a_name = "idx"; elem_size = 8; length = n + c.rows + c.cols + 8 };
          { a_name = "acc"; elem_size = 8; length = c.rows };
          { a_name = "out"; elem_size = 8; length = n + c.rows + c.cols + 8 };
          { a_name = "out2"; elem_size = 8; length = n + c.rows + c.cols + 8 };
        ];
      regions = [];
      body = first_nest :: rest;
    }
  in
  Program.renumber p

let init (c : cfg) data =
  let open Memclust_util in
  let rng = Rng.create (c.seed + 1) in
  let n = (c.rows * c.cols) + c.rows + c.cols + 8 in
  List.iter
    (fun a ->
      for i = 0 to n - 1 do
        Data.set data a i (Vfloat (Rng.float rng 4.0 -. 2.0))
      done)
    [ "m0"; "m1"; "m2"; "out"; "out2" ];
  for i = 0 to n - 1 do
    Data.set data "idx" i (Vint (Rng.int rng n))
  done;
  for i = 0 to c.rows - 1 do
    Data.set data "acc" i (Vfloat 0.0)
  done

let arbitrary =
  QCheck.make cfg_gen ~print:(fun c ->
      Printf.sprintf "rows=%d cols=%d stmts=%d seed=%d nests=%d" c.rows c.cols
        c.stmts c.seed c.nests)
