(* One benchmark session against a `sqlledger serve` child: set-up, the
   closing digest/verify/kill/recovery sequence, and the correctness
   gates they enforce. *)

open Sql_ledger
module P = Wire.Protocol

type config = { bin : string; seed : int; seconds : int; conns : int }

(* A failed gate: report it, print the result line without metrics, and
   exit non-zero (the at_exit hook kills the server). *)
exception Gate of string

let warmup_ops = function
  | Gen.Oltp_write -> 300
  | Gen.Read_mostly -> 1000
  | Gen.Audit -> 10

let server_flags cfg w =
  match w with
  | Gen.Audit ->
      [ "--block-size"; "4"; "--signing-seed"; Printf.sprintf "perfbench-%d" cfg.seed ]
  | Gen.Oltp_write | Gen.Read_mostly -> []

(* The audit workload anchors receipts per block; the others never ask. *)
let no_pin _ = None

type env = {
  w : Gen.workload;
  srv : Host.server;
  ctl : Drive.C.t;
  gens : Gen.t array;
  pin : int -> Digest.t option;
  setup_s : float;
}

(* Launch to first timed operation: spawn the server on a fresh
   directory, create the schema, run the seeded preload (and, for audit,
   close its history with a digest), then the warm-up. *)
let setup cfg w ~dir =
  let t0 = Host.now () in
  Host.rm_rf dir;
  let srv = Host.spawn_server ~bin:cfg.bin ~dir (server_flags cfg w) in
  let ctl = Drive.connect srv.port in
  (match
     Drive.call ctl
       (P.Create_table { name = Gen.table w; columns = Gen.columns; key = [ "id" ]; ledger = true })
   with
  | P.Ok_r -> ()
  | r -> raise (Gate ("create table: unexpected " ^ P.response_kind r)));
  let gens = Array.init cfg.conns (fun conn -> Gen.create w ~seed:cfg.seed ~conn ~conns:cfg.conns) in
  let txn_ids = Drive.preload ~port:srv.port gens in
  let pin =
    match w with
    | Gen.Audit -> (
        let history = Array.concat (Array.to_list (Array.map Array.of_list txn_ids)) in
        Array.sort compare history;
        Array.iter (fun g -> Gen.set_history g history) gens;
        match Drive.call ctl P.Digest with
        | P.Digest_r j -> (
            match Digest.of_json j with
            | Ok d -> Drive.block_pins ctl d
            | Error e -> raise (Gate ("history digest: " ^ e)))
        | r -> raise (Gate ("history digest: unexpected " ^ P.response_kind r)))
    | Gen.Read_mostly ->
        (match Drive.call ctl P.Checkpoint with
        | P.Ok_r -> ()
        | r -> raise (Gate ("checkpoint: unexpected " ^ P.response_kind r)));
        no_pin
    | Gen.Oltp_write -> no_pin
  in
  let warm =
    Drive.run_pass ~check_in_latency:true ~port:srv.port ~pin
      ~per_conn:(warmup_ops w) gens
  in
  if warm.tally.failed > 0 then
    raise (Gate ("warm-up: " ^ Option.value ~default:"" warm.tally.first));
  { w; srv; ctl; gens; pin; setup_s = Host.now () -. t0 }

let timed_ops cfg w = Gen.nominal_rate w * cfg.seconds / cfg.conns

(* Everything after the timed phase: the final digest, the wire verify,
   peak RSS, SIGKILL, the on-disk footprint, and recovery of the killed
   directory, which must equal the model and verify against the digest. *)
type finish = {
  digest : Digest.t;
  verify_versions : int;
  verify_s : float list;
  rss_mb : float;
  dir_bytes : int;
  recovery_s : float list;
  recovered : Database.t;
}

let rows_of_db db tbl =
  let lt = Database.ledger_table db tbl in
  Ledger_table.current_rows lt
  |> List.map (fun r -> Array.to_list (Ledger_table.user_row lt r))
  |> List.sort compare

let model_rows env =
  Array.to_list env.gens
  |> List.concat_map (fun g -> List.map Gen.values (Gen.rows g))
  |> List.sort compare

let finish env ~verifies ~recoveries =
  let digest_json =
    match Drive.call env.ctl P.Digest with
    | P.Digest_r j -> j
    | r -> raise (Gate ("final digest: unexpected " ^ P.response_kind r))
  in
  let digest =
    match Digest.of_json digest_json with Ok d -> d | Error e -> raise (Gate e)
  in
  let versions = ref 0 in
  let verify_s =
    List.init verifies (fun _ ->
        let t0 = Host.now () in
        match Drive.call env.ctl (P.Verify { tables = []; digests = [ digest_json ] }) with
        | P.Verify_r s when s.vs_ok ->
            versions := s.vs_versions;
            Host.now () -. t0
        | P.Verify_r s ->
            raise (Gate ("wire verify failed: " ^ String.concat "; " s.vs_violations))
        | r -> raise (Gate ("wire verify: unexpected " ^ P.response_kind r)))
  in
  let rss_mb = Host.peak_rss_mb env.srv.pid in
  Host.kill_server env.srv;
  let dir_bytes = Host.tree_bytes env.srv.dir in
  let copy i =
    let c = Printf.sprintf "%s.recovered%d" env.srv.dir i in
    Host.rm_rf c;
    Host.copy_tree env.srv.dir c;
    c
  in
  let recovery_s =
    List.init recoveries (fun i ->
        let c = copy i in
        let self = Sys.executable_name in
        let ic = Unix.open_process_args_in self [| self; "--recover"; c |] in
        let out = try input_line ic with End_of_file -> "" in
        let status = Unix.close_process_in ic in
        Host.rm_rf c;
        match (status, float_of_string_opt out) with
        | Unix.WEXITED 0, Some s -> s
        | _ -> raise (Gate ("recovery of the killed directory failed: " ^ out)))
  in
  let gate_copy = copy recoveries in
  let db =
    match Durable.open_dir ~dir:gate_copy ~name:"served" () with
    | Ok d -> Durable.db d
    | Error e -> raise (Gate ("recovery: " ^ e))
  in
  Host.rm_rf gate_copy;
  if rows_of_db db (Gen.table env.w) <> model_rows env then
    raise (Gate "the recovered database differs from the acknowledged writes");
  let report = Verifier.verify db ~digests:[ digest ] in
  if not (Verifier.ok report) then
    raise (Gate "the recovered database fails verification against the pre-kill digest");
  {
    digest;
    verify_versions = !versions;
    verify_s;
    rss_mb;
    dir_bytes;
    recovery_s;
    recovered = db;
  }

