(* The load generator's side of the wire: turning generated operations
   into requests, checking every response against the model, counting
   failures by kind, and running one closed-loop pass with one connection
   (on its own thread) per generator. *)

open Sql_ledger
module P = Wire.Protocol
module C = Wire.Client

exception Transport of string

let connect port =
  match C.connect ~client:"perfbench" ~host:"127.0.0.1" ~port () with
  | Ok c -> c
  | Error e -> raise (Transport (C.connect_error_to_string e))

let call c req =
  match C.call c req with Ok r -> r | Error e -> raise (Transport e)

(* ------------------------------------------------------------------ *)
(* Failure accounting *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  kinds : (string, int) Hashtbl.t;  (* failure kind -> count *)
  mutable first : string option;  (* first failure, for the report *)
}

let new_tally () = { attempted = 0; failed = 0; kinds = Hashtbl.create 4; first = None }

let note_failure t ~kind msg =
  t.failed <- t.failed + 1;
  Hashtbl.replace t.kinds kind (1 + Option.value ~default:0 (Hashtbl.find_opt t.kinds kind));
  if t.first = None then t.first <- Some (kind ^ ": " ^ msg)

let merge_into dst src =
  dst.attempted <- dst.attempted + src.attempted;
  dst.failed <- dst.failed + src.failed;
  Hashtbl.iter
    (fun k n -> Hashtbl.replace dst.kinds k (n + Option.value ~default:0 (Hashtbl.find_opt dst.kinds k)))
    src.kinds;
  if dst.first = None then dst.first <- src.first

let kinds_to_string t =
  Hashtbl.fold (fun k n acc -> Printf.sprintf "%s=%d" k n :: acc) t.kinds []
  |> List.sort compare |> String.concat " "

(* ------------------------------------------------------------------ *)
(* Requests and response checks *)

let request_of = function
  | Gen.Write { sql; _ } -> P.Exec { sql }
  | Gen.Read { sql; _ } -> P.Query { sql }
  | Gen.Receipts { txn_ids } -> P.Receipts { txn_ids }

(* A receipt batch passes when it answers exactly the requested ids and
   every receipt verifies offline, signature included, against the digest
   pinned for its block. *)
let check_receipts ~pin ~txn_ids ~receipts ~pending ~block_keys =
  if pending <> [] then Error ("receipt_pending", "requested txns still in the open block")
  else
    let rec go seen = function
      | [] ->
          if List.sort compare seen = List.sort compare txn_ids then Ok ()
          else Error ("wrong_result", "receipt batch answers other transactions")
      | doc :: rest -> (
          match Receipt.of_json doc with
          | Error e -> Error ("receipt_invalid", e)
          | Ok r -> (
              match pin r.Receipt.block.Types.block_id with
              | None -> Error ("receipt_invalid", "no pinned digest for the receipt's block")
              | Some digest -> (
                  match Receipt.verify ~digest r with
                  | Error f -> Error ("receipt_invalid", Receipt.failure_to_string f)
                  | Ok () when r.Receipt.signature = None ->
                      Error ("receipt_invalid", "receipt carries no block signature")
                  | Ok () -> go (r.Receipt.entry.Types.txn_id :: seen) rest)))
    in
    go [] (Receipt.inflate_batch ~block_keys receipts)

let check ~pin op resp =
  match (op, resp) with
  | _, P.Error_r { code; message; _ } -> Error (P.error_code_to_string code, message)
  | Gen.Write _, P.Affected_r { rows = 1; _ } -> Ok ()
  | Gen.Read { expect; sql }, P.Rows_r { rows; _ } ->
      let want = match expect with None -> [] | Some r -> [ Gen.values r ] in
      if List.equal (List.equal Relation.Value.equal) rows want then Ok ()
      else Error ("wrong_result", sql)
  | Gen.Receipts { txn_ids }, P.Receipts_r { receipts; pending; block_keys } ->
      check_receipts ~pin ~txn_ids ~receipts ~pending ~block_keys
  | _, r -> Error ("wrong_result", "unexpected " ^ P.response_kind r ^ " response")

(* ------------------------------------------------------------------ *)
(* One closed-loop pass *)

(* Run every job on its own thread and collect the results. The load
   generator's connections are system threads of one domain: the
   generator then occupies at most one core's worth of OCaml execution,
   leaving the other cores to the server, which keeps how the two
   processes share the host steady from run to run. *)
let spawn_join jobs =
  let out = Array.map (fun _ -> None) jobs in
  let err = ref None in
  let threads =
    Array.mapi
      (fun i job ->
        Thread.create
          (fun () -> try out.(i) <- Some (job ()) with e -> err := Some e)
          ())
      jobs
  in
  Array.iter Thread.join threads;
  Option.iter raise !err;
  Array.map Option.get out

type pass = {
  lat_us : float array;  (* every completed operation's latency *)
  elapsed : float;  (* first send to last completion, over all connections *)
  tally : tally;
  spans : Trace.span list;
  samples : (P.request * P.response) list;
      (* the first request/response pairs, kept for the codec probe *)
}

let ops p = Array.length p.lat_us

(* Span names of the traced wire pass. *)
let span_op = "client.op"
let span_call = "wire.call"
let span_check = "client.check"

(* Run [per_conn] operations on every generator, each on its own
   connection and thread. Latency runs from the send until the response
   is decoded; with [check_in_latency] it also covers the response check
   (the audit workload's offline receipt verification is part of what
   its client waits for). Any exception on a connection, a transport
   failure included, is counted as a failure and ends that connection's
   pass; the others run on. *)
let run_pass ?(traced = false) ?(sample = 0) ~check_in_latency ~port ~pin ~per_conn gens =
  let work i () =
    let g = gens.(i) in
    let tally = new_tally () in
    let tr = Trace.create ~id_base:(i * 100_000_000) () in
    let samples = ref [] and n_samples = ref 0 in
    let lat = Array.make per_conn 0.0 in
    let completed = ref 0 in
    let t_start = Host.now () in
    let c = ref None in
    (try
       let conn = connect port in
       c := Some conn;
       for k = 0 to per_conn - 1 do
         let op = Gen.next g in
         let req = request_of op in
         let id = (i * 10_000_000) + k in
         tally.attempted <- tally.attempted + 1;
         let t0 = Host.now () in
         let resp, decoded, verdict =
           if traced then
             Trace.with_span tr ~op:id span_op (fun () ->
                 let resp = Trace.with_span tr ~op:id span_call (fun () -> call conn req) in
                 let decoded = Host.now () in
                 (resp, decoded, Trace.with_span tr ~op:id span_check (fun () -> check ~pin op resp)))
           else
             let resp = call conn req in
             let decoded = Host.now () in
             (resp, decoded, check ~pin op resp)
         in
         let t1 = if check_in_latency then Host.now () else decoded in
         lat.(k) <- (t1 -. t0) *. 1e6;
         completed := k + 1;
         if !n_samples < sample then begin
           samples := (req, resp) :: !samples;
           incr n_samples
         end;
         match verdict with
         | Ok () -> ()
         | Error (kind, msg) -> note_failure tally ~kind msg
       done
     with
    | Transport e -> note_failure tally ~kind:"transport" e
    | e -> note_failure tally ~kind:"exception" (Printexc.to_string e));
    let t_end = Host.now () in
    Option.iter C.close !c;
    (Array.sub lat 0 !completed, (t_start, t_end), tally, Trace.spans tr, List.rev !samples)
  in
  let results = spawn_join (Array.init (Array.length gens) work) in
  let tally = new_tally () in
  Array.iter (fun (_, _, t, _, _) -> merge_into tally t) results;
  let t_start = Array.fold_left (fun a (_, (s, _), _, _, _) -> Float.min a s) infinity results in
  let t_end = Array.fold_left (fun a (_, (_, e), _, _, _) -> Float.max a e) 0.0 results in
  let each f = List.concat_map f (Array.to_list results) in
  {
    lat_us = Array.concat (each (fun (l, _, _, _, _) -> [ l ]));
    elapsed = t_end -. t_start;
    tally;
    spans = each (fun (_, _, _, s, _) -> s);
    samples = each (fun (_, _, _, _, s) -> s);
  }

(* Run every generator's set-up statements over its own connection, in
   parallel; returns the committed transaction id of each statement, in
   the order sent (the audit workload's receipt history). *)
let preload ~port gens =
  let work g () =
    let c = connect port in
    let ids =
      List.map
        (fun sql ->
          match call c (P.Exec { sql }) with
          | P.Affected_r { rows; txn_id = Some id } when rows > 0 -> id
          | P.Error_r { code; message; _ } ->
              failwith (Printf.sprintf "preload: %s: %s" (P.error_code_to_string code) message)
          | r -> failwith ("preload: unexpected " ^ P.response_kind r ^ " response"))
        (Gen.preload_statements g)
    in
    C.close c;
    ids
  in
  spawn_join (Array.map work gens)

(* Wire statistics: the value of the line starting with [prefix]. *)
let stat lines prefix =
  List.find_map
    (fun line ->
      if String.starts_with ~prefix line then
        match String.rindex_opt line ' ' with
        | Some i -> float_of_string_opt (String.sub line (i + 1) (String.length line - i - 1))
        | None -> None
      else None)
    lines

let stats c = match call c P.Stats with P.Stats_r lines -> lines | _ -> []

(* Digests pinning each closed block, derived from the final digest and
   the chain of [prev_hash] links in the blocks system table: block b's
   hash is the [prev_hash] recorded by block b + 1. The run's closing
   wire verify checks that chain against the final digest, so a receipt
   anchored here is anchored to the final digest. *)
let block_pins c (final : Digest.t) =
  let prev = Hashtbl.create 1024 in
  (match call c (P.Query { sql = "SELECT block_id, prev_hash FROM database_ledger_blocks" }) with
  | P.Rows_r { rows; _ } ->
      List.iter
        (function
          | [ Relation.Value.Int b; Relation.Value.String h ] when h <> "" ->
              Hashtbl.replace prev b (Ledger_crypto.Hex.decode h)
          | _ -> ())
        rows
  | r -> failwith ("blocks query: unexpected " ^ P.response_kind r ^ " response"));
  fun block_id ->
    if block_id = final.block_id then Some final
    else
      Option.map
        (fun block_hash -> { final with Digest.block_id; block_hash })
        (Hashtbl.find_opt prev (block_id + 1))
