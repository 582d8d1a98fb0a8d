(* The traced run: per-layer metrics.

   Never the run that produces the end-to-end numbers. After the usual
   set-up it
   - runs half the timed operations untraced and half with spans around
     the generator's own calls (the ratio of the two throughputs is the
     tracing overhead), and reads the server's own counters over the wire
     before and after the traced half;
   - recovers the killed server's directory and times the verifier,
     snapshot load and WAL replay on it, and receipt issuance on a
     snapshot-loaded copy whose receipt cache starts empty;
   - replays the same seeded operation stream in-process through the
     public calls [Dispatch] makes, in its order (write: parse, stage,
     snapshot, WAL append and sync, accumulate; read: parse, execute on
     the published snapshot; receipts: issue, verify), with a span around
     each call;
   - times the hashing, signing and Merkle building blocks directly.
   Spans are written to [<data>/<workload>.spans.jsonl] when the run ends.
   Layers the workload's own stream never enters (the audit stream issues
   no SQL) are measured on a probe of point reads and updates instead, so
   every metric is a measurement on every workload. *)

open Sql_ledger
module P = Wire.Protocol

let user = "perfbench"

(* [f] [n] times; the duration of each call in microseconds. *)
let time_each n f =
  Array.init n (fun _ ->
      let t0 = Host.now () in
      ignore (Sys.opaque_identity (f ()));
      (Host.now () -. t0) *. 1e6)

let fast_us n f = Stats.fast_quartile `Lower (time_each n f)
let p50 a = Stats.percentile a 50.0

(* ------------------------------------------------------------------ *)
(* In-process replay of the server's request paths *)

type replay = {
  db : Database.t;
  wal : Aries.Wal.t;  (* file-backed, in the data directory, no fsync per append *)
  wal_path : string;
  tr : Trace.t;
  mutable view : Database.t;  (* the published read snapshot *)
  mutable writes : int;
  closes : float list ref;  (* forced block closes, us *)
  close_every : int;
}

let span r ~op name f = Trace.with_span r.tr ~op name f

(* One auto-commit write as the group-commit path runs it. *)
let write ?(sync = true) r ~op sql =
  span r ~op "client.op" (fun () ->
      let stmt = span r ~op "sqlexec.parse" (fun () -> Sqlexec.Parser.parse_statement sql) in
      let staged =
        match span r ~op "core.stage" (fun () -> Dml.execute_statement_staged r.db ~user stmt) with
        | _, Some st -> st
        | _, None -> failwith ("replay: nothing staged for " ^ sql)
      in
      let snap = span r ~op "core.snapshot" (fun () -> Database.snapshot r.db) in
      span r ~op "wal.append" (fun () ->
          ignore (Aries.Wal.append_batch r.wal staged.staged_records : int list));
      if sync then span r ~op "wal.sync" (fun () -> Aries.Wal.sync r.wal);
      span r ~op "core.accumulate" (fun () ->
          Database_ledger.accumulate_batch (Database.ledger r.db) [ staged.staged_entry ]);
      r.view <- snap;
      r.writes <- r.writes + 1;
      if r.writes mod r.close_every = 0 then begin
        let t0 = Host.now () in
        Database_ledger.close_current_block (Database.ledger r.db);
        r.closes := ((Host.now () -. t0) *. 1e6) :: !(r.closes);
        r.view <- Database.snapshot r.db
      end;
      staged.staged_entry.Types.txn_id)

let read r ~op sql =
  span r ~op "client.op" (fun () ->
      let stmt = span r ~op "sqlexec.parse" (fun () -> Sqlexec.Parser.parse_statement sql) in
      ignore (span r ~op "core.read_exec" (fun () -> Dml.execute_statement r.view ~user stmt) : Dml.result))

(* Digest pinning each closed block of an in-process database: block b's
   hash is the prev_hash block b + 1 records; the last block's is the
   final digest's. *)
let pins db (final : Digest.t) block_id =
  if block_id = final.block_id then Some final
  else
    Option.map
      (fun (b : Types.block) -> { final with Digest.block_id; block_hash = b.prev_hash })
      (Database_ledger.find_block (Database.ledger db) ~block_id:(block_id + 1))

let receipts r ~op ~pin txn_ids =
  span r ~op "client.op" (fun () ->
      List.iter
        (fun txn_id ->
          let rc =
            match span r ~op "receipt.issue" (fun () -> Receipt.generate_cached r.view ~txn_id) with
            | Ok rc -> rc
            | Error e -> failwith (Receipt.issue_error_to_string ~txn_id e)
          in
          match
            span r ~op "receipt.verify" (fun () ->
                match pin rc.Receipt.block.Types.block_id with
                | Some digest -> Receipt.verify ~digest rc
                | None -> Error (Receipt.Malformed "no pinned digest"))
          with
          | Ok () -> ()
          | Error f -> failwith ("replay receipt: " ^ Receipt.failure_to_string f))
        txn_ids)

let replay_ops = function Gen.Oltp_write -> 3000 | Gen.Read_mostly -> 6000 | Gen.Audit -> 150

(* Build the workload's preloaded state in-process (through the same
   write path, untraced and without per-statement fsync), then replay the
   seeded stream. Returns the replay state, the stream's spans and the
   number of stream writes. *)
let replay_stream (cfg : Session.config) w ~dir =
  let signing_seed =
    match w with Gen.Audit -> Some (Printf.sprintf "perfbench-%d" cfg.seed) | _ -> None
  in
  let db = Database.create ?signing_seed ~name:"replay" () in
  let columns =
    List.map
      (fun (name, ty) -> Relation.Column.make name (Option.get (Relation.Datatype.of_string ty)))
      Gen.columns
  in
  ignore (Database.create_ledger_table db ~name:(Gen.table w) ~columns ~key:[ "id" ] () : Ledger_table.t);
  let wal_path = dir ^ ".replay-wal.jsonl" in
  let r =
    {
      db;
      wal = Aries.Wal.create ~path:wal_path ~sync_commits:false ();
      wal_path;
      tr = Trace.create ();
      view = Database.snapshot db;
      writes = 0;
      closes = ref [];
      close_every = (match w with Gen.Audit -> 4 | _ -> 16);
    }
  in
  let gens = Array.init cfg.conns (fun conn -> Gen.create w ~seed:cfg.seed ~conn ~conns:cfg.conns) in
  let statements = Array.map (fun g -> Array.of_list (Gen.preload_statements g)) gens in
  let history = ref [] in
  let longest = Array.fold_left (fun a s -> max a (Array.length s)) 0 statements in
  for k = 0 to longest - 1 do
    Array.iter
      (fun s -> if k < Array.length s then history := write ~sync:false r ~op:(-1) s.(k) :: !history)
      statements
  done;
  let pin =
    match Database.generate_digest db with
    | Some final -> pins db final
    | None -> fun _ -> None
  in
  r.view <- Database.snapshot db;
  let history = Array.of_list (List.rev !history) in
  Array.sort compare history;
  Array.iter (fun g -> Gen.set_history g history) gens;
  let setup_closes = !(r.closes) in
  r.closes := (match w with Gen.Audit -> setup_closes | _ -> []);
  (* The stream proper, with fresh spans. *)
  let tr = Trace.create () in
  let r = { r with tr } in
  let wal_before = (Unix.stat wal_path).Unix.st_size and writes_before = r.writes in
  for k = 0 to replay_ops w - 1 do
    let g = gens.(k mod cfg.conns) in
    match Gen.next g with
    | Gen.Write { sql; _ } -> ignore (write r ~op:k sql : int)
    | Gen.Read { sql; _ } -> read r ~op:k sql
    | Gen.Receipts { txn_ids } -> receipts r ~op:k ~pin txn_ids
  done;
  let stream_spans = Trace.spans tr in
  (* The probe: point reads and updates on the workload's own rows. *)
  let probe_tr = Trace.create ~id_base:1_000_000_000 () in
  let p = { r with tr = probe_tr } in
  let g = gens.(0) in
  let keys = Array.of_list (List.map (fun (row : Gen.row) -> row.id) (Gen.rows g)) in
  let probe_wal_before = (Unix.stat wal_path).Unix.st_size and probe_writes_before = p.writes in
  for k = 0 to 399 do
    let id = keys.(k * 7919 mod Array.length keys) in
    if k mod 2 = 0 then read p ~op:(1_000_000 + k) (Gen.select_sql g id)
    else
      match Gen.update g id with
      | Gen.Write { sql; _ } -> ignore (write p ~op:(1_000_000 + k) sql : int)
      | _ -> assert false
  done;
  let wal_bytes_per_txn =
    let stream_writes = r.writes - writes_before in
    if stream_writes > 0 then float_of_int (probe_wal_before - wal_before) /. float_of_int stream_writes
    else
      float_of_int ((Unix.stat wal_path).Unix.st_size - probe_wal_before)
      /. float_of_int (p.writes - probe_writes_before)
  in
  Aries.Wal.close r.wal;
  (r, stream_spans, Trace.spans probe_tr, wal_bytes_per_txn)

(* ------------------------------------------------------------------ *)
(* Building blocks timed directly *)

let random_strings n len =
  let prng = Workload.Prng.create 17 in
  Array.init n (fun _ -> Workload.Prng.alnum_string prng len)

let sha256_ns_per_byte ~row_len =
  let rows = random_strings 2000 row_len and nodes = random_strings 2000 64 in
  let ctx = Ledger_crypto.Sha256.init () in
  let bytes = float_of_int (2000 * (row_len + 64)) in
  let once () =
    let t0 = Host.now () in
    let feed s =
      Ledger_crypto.Sha256.reset ctx;
      Ledger_crypto.Sha256.feed_string ctx s;
      ignore (Sys.opaque_identity (Ledger_crypto.Sha256.get ctx))
    in
    Array.iter feed rows;
    Array.iter feed nodes;
    (Host.now () -. t0) *. 1e9 /. bytes
  in
  Stats.fast_quartile `Lower (Array.init 5 (fun _ -> once ()))

let lamport () =
  let root = Ledger_crypto.Sha256.digest_string "block root" in
  let sign_ms =
    Stats.fast_quartile `Lower
      (Array.init 5 (fun i ->
           let t0 = Host.now () in
           let sk, _ = Ledger_crypto.Lamport.generate ~seed:(Printf.sprintf "perfbench:%d" i) in
           ignore (Sys.opaque_identity (Ledger_crypto.Lamport.sign sk root));
           (Host.now () -. t0) *. 1e3))
  in
  let sk, pk = Ledger_crypto.Lamport.generate ~seed:"perfbench:verify" in
  let signature = Ledger_crypto.Lamport.sign sk root in
  let verify_us =
    fast_us 20 (fun () ->
        if not (Ledger_crypto.Lamport.verify pk ~msg:root signature) then failwith "lamport verify")
  in
  (sign_ms, verify_us)

let merkle () =
  let leaves n = Array.map Ledger_crypto.Sha256.digest_string (random_strings n 16) in
  let small = Array.to_list (leaves 4096) in
  let per_leaf =
    fast_us 5 (fun () -> Merkle.Tree.root (Merkle.Tree.of_leaves small)) /. 4096.0
  in
  let big = leaves 65536 in
  let seq = fast_us 3 (fun () -> Merkle.Parallel.sequential_root big) in
  let par = fast_us 3 (fun () -> Merkle.Parallel.root_array ~domains:Host.nproc big) in
  (per_leaf, seq /. par)

(* Per-row cost of [f] over [items], timed in batches of 100 because a
   single call is shorter than the clock's resolution. *)
let batched_us items f =
  let n = Array.length items in
  let batches = max 1 (n / 100) in
  p50
    (Array.init batches (fun b ->
         let t0 = Host.now () in
         for i = b * 100 to min n ((b + 1) * 100) - 1 do
           ignore (Sys.opaque_identity (f items.(i)))
         done;
         (Host.now () -. t0) *. 1e6 /. float_of_int (min 100 (n - (b * 100)))))

(* Cold and warm issuance on a database whose receipt cache is empty:
   the first receipt from a block builds its proof tree (and signature),
   the second reuses them. *)
let receipt_probe db (final : Digest.t) =
  let ledger = Database.ledger db in
  let blocks = Array.of_list (Database_ledger.blocks ledger) in
  let picks = min 32 (Array.length blocks) in
  let sample =
    List.init picks (fun i -> blocks.(i * Array.length blocks / picks))
    |> List.filter_map (fun (b : Types.block) ->
           match Database_ledger.entries_of_block ledger ~block_id:b.block_id with
           | e :: _ -> Some e.Types.txn_id
           | [] -> None)
  in
  let issue txn_id =
    let t0 = Host.now () in
    match Receipt.generate_cached db ~txn_id with
    | Ok rc -> (rc, (Host.now () -. t0) *. 1e6)
    | Error e -> failwith (Receipt.issue_error_to_string ~txn_id e)
  in
  let cold = List.map (fun id -> snd (issue id)) sample in
  let warm = List.map issue sample in
  let pin = pins db final in
  let verify =
    List.map
      (fun (rc, _) ->
        let t0 = Host.now () in
        (match pin rc.Receipt.block.Types.block_id with
        | Some digest when Receipt.verify ~digest rc = Ok () -> ()
        | _ -> raise (Session.Gate "a receipt issued in-process fails verification"));
        (Host.now () -. t0) *. 1e6)
      warm
  in
  let a l = Array.of_list l in
  (p50 (a cold), p50 (a (List.map snd warm)), p50 (a verify))

(* ------------------------------------------------------------------ *)
(* Wire codec on the traced pass's own messages *)

let codec samples =
  let one (req, resp) =
    let t0 = Host.now () in
    let out = P.encode_request ~id:1 req in
    ignore (Sys.opaque_identity (P.decode_request out));
    let back = P.encode_response ~id:1 resp in
    ignore (Sys.opaque_identity (P.decode_response back));
    ((Host.now () -. t0) *. 1e6, float_of_int (String.length back))
  in
  let timed = Array.of_list (List.map one samples) in
  (p50 (Array.map fst timed), Stats.mean (Array.map snd timed))

(* ------------------------------------------------------------------ *)
(* The run *)

let server_stat lines kind stat =
  Drive.stat lines (Printf.sprintf "sqlledger_request_latency_us{kind=%S,stat=%S}" kind stat)

let server_count lines kind =
  Option.value ~default:0.0 (Drive.stat lines (Printf.sprintf "sqlledger_requests_total{kind=%S}" kind))

(* Mean of a server histogram over the traced pass (from the counts and
   averages exported before and after it), or over the server's lifetime
   when the pass recorded no sample of that kind. *)
let pass_avg ~before ~after kind =
  let n0 = server_count before kind and n1 = server_count after kind in
  let avg l = Option.value ~default:0.0 (server_stat l kind "avg") in
  if n1 > n0 then ((avg after *. n1) -. (avg before *. n0)) /. (n1 -. n0) else avg after

let stream_layers =
  [ "sqlexec.parse"; "core.stage"; "core.snapshot"; "wal.append"; "wal.sync"; "core.accumulate";
    "core.read_exec"; "receipt.issue"; "receipt.verify" ]

let traced_run (cfg : Session.config) w ~dir =
  let env = Session.setup cfg w ~dir in
  let per_conn = max 1 (Session.timed_ops cfg w / 2) in
  let check_in_latency = w = Gen.Audit in
  let pass ?traced ?sample () =
    Drive.run_pass ?traced ?sample ~check_in_latency ~port:env.srv.port ~pin:env.pin ~per_conn env.gens
  in
  let plain = pass () in
  let pings = time_each 300 (fun () -> Drive.call env.ctl P.Ping) in
  let before = Drive.stats env.ctl in
  let traced = pass ~traced:true ~sample:200 () in
  let after = Drive.stats env.ctl in
  let tally = Drive.new_tally () in
  Drive.merge_into tally plain.tally;
  Drive.merge_into tally traced.tally;
  if tally.failed > 0 then (tally, Error (Option.value ~default:"" tally.first))
  else begin
    let f = Session.finish env ~verifies:1 ~recoveries:1 in
    let verify_s =
      let t0 = Host.now () in
      ignore (Verifier.verify f.recovered ~digests:[ f.digest ] : Verifier.report);
      Host.now () -. t0
    in
    let snap_path = dir ^ ".snapshot" in
    Snapshot.save_to_file f.recovered ~path:snap_path;
    let t0 = Host.now () in
    let loaded =
      match Snapshot.load_from_file ~path:snap_path () with
      | Ok db -> db
      | Error e -> raise (Session.Gate ("snapshot load: " ^ e))
    in
    let snapshot_load_s = Host.now () -. t0 in
    let snapshot_path =
      let p = Durable.snapshot_path dir in
      if Sys.file_exists p then Some p else None
    in
    let t0 = Host.now () in
    (match Wal_replay.replay_file ?snapshot_path ~wal_path:(Durable.wal_path dir) () with
    | Ok _ -> ()
    | Error e -> raise (Session.Gate ("WAL replay: " ^ e)));
    let wal_replay_s = Host.now () -. t0 in
    let cold_us, warm_us, receipt_verify_us = receipt_probe loaded f.digest in
    let r, stream, probe, wal_bytes_per_txn = replay_stream cfg w ~dir in
    let lt = Database.ledger_table r.db (Gen.table w) in
    let stored = Array.of_list (Ledger_table.current_rows lt) in
    let main = Ledger_table.main lt in
    let find_us = batched_us stored (fun row -> Storage.Table_store.find main ~key:[| row.(0) |]) in
    let row_ctx = Ledger_crypto.Sha256.init () and schema = Ledger_table.schema lt in
    let row_hash_us = batched_us stored (fun row -> Relation.Row_codec.hash_into row_ctx schema row) in
    let row_len =
      if Array.length stored = 0 then 64
      else String.length (Relation.Row_codec.serialize schema stored.(0))
    in
    let sha_ns = sha256_ns_per_byte ~row_len in
    let sign_ms, lamport_verify_us = lamport () in
    let root_us_per_leaf, speedup = merkle () in
    let codec_us, resp_bytes = codec traced.samples in
    let by_stream = Trace.self_by_layer stream and by_probe = Trace.self_by_layer probe in
    let by_wire = Trace.self_by_layer traced.spans in
    let layer ?(p = 50.0) name =
      let v = Trace.layer_percentile by_stream name p in
      if Float.is_nan v then Trace.layer_percentile by_probe name p else v
    in
    let tps (ps : Drive.pass) = float_of_int (Drive.ops ps) /. ps.elapsed in
    let accounted =
      Trace.blocking_p50_sum by_stream ~ops:(Trace.op_count stream) stream_layers +. codec_us
    in
    Trace.write_jsonl
      (Filename.concat (Filename.dirname dir) (Gen.workload_name w ^ ".spans.jsonl"))
      (traced.spans @ stream @ probe);
    List.iter Host.rm_rf [ dir; snap_path; r.wal_path ];
    let avg = pass_avg ~before ~after in
    ( tally,
      Ok
        [
          ("wire.ping_rtt_us", p50 pings, "us");
          ("wire.codec_us", codec_us, "us");
          ("wire.resp_bytes", resp_bytes, "bytes");
          ("client.check_us", Trace.layer_percentile by_wire Drive.span_check 50.0, "us");
          ("sqlexec.parse_us", layer "sqlexec.parse", "us");
          ("sqlexec.parse_p95_us", layer ~p:95.0 "sqlexec.parse", "us");
          ("core.read_exec_us", layer "core.read_exec", "us");
          ("core.read_exec_p95_us", layer ~p:95.0 "core.read_exec", "us");
          ("core.stage_us", layer "core.stage", "us");
          ("core.stage_p95_us", layer ~p:95.0 "core.stage", "us");
          ("core.snapshot_us", layer "core.snapshot", "us");
          ("core.snapshot_p95_us", layer ~p:95.0 "core.snapshot", "us");
          ("core.accumulate_us", layer "core.accumulate", "us");
          ("core.accumulate_p95_us", layer ~p:95.0 "core.accumulate", "us");
          ("core.block_close_us", p50 (Array.of_list !(r.closes)), "us");
          ("storage.find_us", find_us, "us");
          ("relation.row_hash_us", row_hash_us, "us");
          ("crypto.sha256_ns_per_byte", sha_ns, "ns/B");
          ("crypto.lamport_sign_ms", sign_ms, "ms");
          ("crypto.lamport_verify_us", lamport_verify_us, "us");
          ("merkle.root_us_per_leaf", root_us_per_leaf, "us");
          ("merkle.parallel_speedup", speedup, "ratio");
          ("wal.append_us", layer "wal.append", "us");
          ("wal.append_p95_us", layer ~p:95.0 "wal.append", "us");
          ("wal.sync_us", layer "wal.sync", "us");
          ("wal.sync_p95_us", layer ~p:95.0 "wal.sync", "us");
          ("wal.bytes_per_txn", wal_bytes_per_txn, "bytes");
          ("server.batch_size_avg", avg "commit.batch_size", "count");
          ("server.flush_us_avg", avg "commit.flush_latency", "us");
          ("server.lock_write_wait_us", avg "lock.write_wait_us", "us");
          ("server.lock_read_wait_us", avg "lock.read_wait_us", "us");
          ( "server.shed",
            Option.value ~default:0.0 (Drive.stat after "sqlledger_counter{name=\"server.shed\"}"),
            "count" );
          ("receipt.issue_cold_us", cold_us, "us");
          ("receipt.issue_warm_us", warm_us, "us");
          ("receipt.verify_us", receipt_verify_us, "us");
          ("verifier.verify_s", verify_s, "s");
          ("recovery.snapshot_load_s", snapshot_load_s, "s");
          ("recovery.wal_replay_s", wal_replay_s, "s");
          ("trace.unaccounted_us", p50 plain.lat_us -. accounted, "us");
          ("trace.overhead_ratio", tps traced /. tps plain, "ratio");
          ("trace.p99_us", Stats.percentile traced.lat_us 99.0, "us");
        ] )
  end
