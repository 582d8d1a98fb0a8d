(* Seeded operation streams and the generator's model of the database.

   One generator per load-generator connection. Connection [c] of [conns]
   owns the keys [j * conns + c + 1]: every write it sends and every read
   whose result it checks stays inside its own range, so its model (the
   rows it has had acknowledged) predicts every SELECT exactly even while
   the other connections write concurrently. The server receives only the
   SQL text and wire requests built here; the seed and the model never
   leave the generator.

   Every choice draws from one splitmix64 stream per connection, seeded
   from the workload seed and the connection index, and the model evolves
   only through the generator's own operations, so a seed always yields
   the same operation stream. *)

open Relation

type workload = Oltp_write | Read_mostly | Audit

let workloads = [ Oltp_write; Read_mostly; Audit ]

let workload_name = function
  | Oltp_write -> "oltp_write"
  | Read_mostly -> "read_mostly"
  | Audit -> "audit"

let workload_of_string s =
  List.find_opt (fun w -> workload_name w = s) workloads

let table = function
  | Oltp_write -> "stock"
  | Read_mostly -> "item"
  | Audit -> "payment"

(* Every workload's table has the same shape: a primary key, a number
   and a fixed-length string, so the user bytes per row are constant. *)
let payload_len = 48
let columns = [ ("id", "int"); ("n", "int"); ("s", Printf.sprintf "varchar(%d)" payload_len) ]

let user_schema =
  Schema.make
    [
      Column.make "id" Datatype.Int;
      Column.make "n" Datatype.Int;
      Column.make "s" (Datatype.Varchar payload_len);
    ]

type row = { id : int; n : int; s : string }

let values r = [ Value.Int r.id; Value.Int r.n; Value.String r.s ]

(* Bytes of the row as the ledger serializes it for hashing: the user
   payload a ledger table must store and protect. *)
let user_bytes r = String.length (Row_codec.serialize user_schema (Array.of_list (values r)))

type op =
  | Write of { sql : string; after : row option }
      (** one auto-commit statement touching one row; [after] is the row's
          new state, [None] when the statement deletes it *)
  | Read of { sql : string; expect : row option }
      (** primary-key point SELECT and the row the model predicts *)
  | Receipts of { txn_ids : int list }
      (** one batched receipt request *)

(* Per-workload sizes. [preload] rows (or, for [Audit], single-row
   transactions) per connection are loaded during set-up; [nominal_rate]
   operations per second, times the requested seconds, fixes the timed
   operation count so the state the run leaves behind does not depend on
   how fast the program is. *)
let preload = function Oltp_write -> 2500 | Read_mostly -> 12000 | Audit -> 700
let nominal_rate = function Oltp_write -> 2500 | Read_mostly -> 15000 | Audit -> 40
let receipts_per_op = 8
let preload_batch = 100

type t = {
  workload : workload;
  conn : int;
  conns : int;
  prng : Workload.Prng.t;
  rows : (int, row) Hashtbl.t;  (* live key -> acknowledged row *)
  mutable live : int array;  (* live keys, dense prefix [0, n_live) *)
  mutable n_live : int;
  slot : (int, int) Hashtbl.t;  (* live key -> index in [live] *)
  mutable next_j : int;
  mutable history : int array;  (* committed txn ids receipts are drawn from *)
  mutable bytes_written : int;
}

let create workload ~seed ~conn ~conns =
  {
    workload;
    conn;
    conns;
    prng = Workload.Prng.create ((seed * 7919) + conn + 1);
    rows = Hashtbl.create 4096;
    live = Array.make 1024 0;
    n_live = 0;
    slot = Hashtbl.create 4096;
    next_j = 0;
    history = [||];
    bytes_written = 0;
  }

let key t j = (j * t.conns) + t.conn + 1

let add_live t id =
  if t.n_live = Array.length t.live then begin
    let bigger = Array.make (2 * t.n_live) 0 in
    Array.blit t.live 0 bigger 0 t.n_live;
    t.live <- bigger
  end;
  t.live.(t.n_live) <- id;
  Hashtbl.replace t.slot id t.n_live;
  t.n_live <- t.n_live + 1

let remove_live t id =
  let i = Hashtbl.find t.slot id in
  let last = t.live.(t.n_live - 1) in
  t.live.(i) <- last;
  Hashtbl.replace t.slot last i;
  Hashtbl.remove t.slot id;
  t.n_live <- t.n_live - 1

let fresh_row t id =
  { id; n = Workload.Prng.int t.prng 1_000_000; s = Workload.Prng.alnum_string t.prng payload_len }

(* Record an acknowledged write in the model. *)
let apply t ~id after =
  match after with
  | Some r ->
      if not (Hashtbl.mem t.rows id) then add_live t id;
      Hashtbl.replace t.rows id r;
      t.bytes_written <- t.bytes_written + user_bytes r
  | None ->
      Hashtbl.remove t.rows id;
      remove_live t id

let sql_literal r = Printf.sprintf "(%d, %d, '%s')" r.id r.n r.s

(* Set-up statements for this connection, applied to the model as they
   are generated: multi-row INSERTs for the table workloads, one
   single-row transaction each for [Audit], whose history must span many
   small blocks. *)
let preload_statements t =
  let n = preload t.workload in
  let tbl = table t.workload in
  let new_row () =
    let r = fresh_row t (key t t.next_j) in
    t.next_j <- t.next_j + 1;
    apply t ~id:r.id (Some r);
    r
  in
  match t.workload with
  | Audit ->
      List.init n (fun _ ->
          Printf.sprintf "INSERT INTO %s VALUES %s" tbl (sql_literal (new_row ())))
  | Oltp_write | Read_mostly ->
      List.init ((n + preload_batch - 1) / preload_batch) (fun b ->
          let count = min preload_batch (n - (b * preload_batch)) in
          let rows = List.init count (fun _ -> sql_literal (new_row ())) in
          Printf.sprintf "INSERT INTO %s VALUES %s" tbl (String.concat ", " rows))

let set_history t txn_ids = t.history <- txn_ids

let uniform_live t = t.live.(Workload.Prng.int t.prng t.n_live)

(* Skewed choice over the preloaded keys: TPC-C's non-uniform random
   rule (clause 2.1.6) with the constant A = 8191 it uses for item ids,
   applied to the index of a live key. *)
let skewed_live t = t.live.(Workload.Prng.nurand t.prng ~a:8191 ~x:0 ~y:(t.n_live - 1))

let select_sql t id = Printf.sprintf "SELECT * FROM %s WHERE id = %d" (table t.workload) id

let update t id =
  let r = fresh_row t id in
  apply t ~id (Some r);
  Write
    {
      sql = Printf.sprintf "UPDATE %s SET n = %d, s = '%s' WHERE id = %d" (table t.workload) r.n r.s id;
      after = Some r;
    }

let read t id = Read { sql = select_sql t id; expect = Hashtbl.find_opt t.rows id }

(* Next operation of the stream; the model already reflects it. *)
let next t =
  match t.workload with
  | Oltp_write ->
      (* The statement mix of the repository's TPC-C-flavoured serve
         benchmark (`bench serve` in bench/main.ml): 45% INSERT, 43%
         UPDATE, 8% point SELECT, 4% DELETE. *)
      let r = Workload.Prng.int t.prng 100 in
      if r < 45 || t.n_live < 16 then begin
        let row = fresh_row t (key t t.next_j) in
        t.next_j <- t.next_j + 1;
        apply t ~id:row.id (Some row);
        Write
          { sql = Printf.sprintf "INSERT INTO %s VALUES %s" (table t.workload) (sql_literal row); after = Some row }
      end
      else if r < 88 then update t (uniform_live t)
      else if r < 96 then read t (uniform_live t)
      else begin
        let id = uniform_live t in
        apply t ~id None;
        Write { sql = Printf.sprintf "DELETE FROM %s WHERE id = %d" (table t.workload) id; after = None }
      end
  | Read_mostly ->
      (* 96% reads, 4% updates. Reads are an order of magnitude faster
         than the fsynced updates, so the 95th latency percentile of the
         mix is the reads' ~99th: p95_us watches the read tail, which
         this workload is about. At exactly 95/5 it would sit on the seam
         between the two distributions. *)
      if Workload.Prng.int t.prng 100 < 96 then read t (skewed_live t) else update t (skewed_live t)
  | Audit ->
      let n = Array.length t.history in
      if n = 0 then invalid_arg "Gen.next: audit history not set";
      let picked = Hashtbl.create receipts_per_op in
      let rec draw acc k =
        if k = 0 || Hashtbl.length picked = n then List.rev acc
        else
          let id = t.history.(Workload.Prng.int t.prng n) in
          if Hashtbl.mem picked id then draw acc k
          else begin
            Hashtbl.add picked id ();
            draw (id :: acc) (k - 1)
          end
      in
      Receipts { txn_ids = draw [] receipts_per_op }

let rows t = Hashtbl.to_seq_values t.rows |> List.of_seq
let bytes_written t = t.bytes_written
