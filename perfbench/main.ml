(* perfbench: the repository's end-to-end benchmark.

     perfbench/run.sh --workload oltp_write|read_mostly|audit --seed N
                      --seconds S --trace 0|1

   Each run drives one `sqlledger serve` child process from this one
   load-generator process: a seeded closed loop with one connection per
   core. With --trace 0 it reports the end-to-end metrics; with --trace 1
   it reports the per-layer breakdown instead (see README.md). The last
   line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}. A failed correctness
   gate prints [correct: false] with no metrics and exits 1. *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10
let trace = ref 0
let bin = ref ""
let data_root = ".bench_data"
let recover_dir = ref ""

let usage =
  "perfbench --workload oltp_write|read_mostly|audit --seed N --seconds S \
   --trace 0|1 --sqlledger PATH"

let () =
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_int seconds, "S nominal length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run or traced per-layer run");
      ("--sqlledger", Arg.Set_string bin, "PATH the sqlledger executable to serve with");
      ( "--recover",
        Arg.Set_string recover_dir,
        "DIR only time Durable.open_dir on DIR and print the seconds (the end-to-end \
         run times each recovery in a fresh process this way)" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage

let say fmt = Printf.printf (fmt ^^ "\n%!")

let conns = max 2 (min 8 Host.nproc)
let setups = 5
(* Verify and recovery redo identical work, so each is reported as the
   fastest of its repetitions: interference only ever adds time, and the
   more repetitions, the surer one of them misses it. The counts give
   each workload a comparable share of its run (a repetition takes about
   1.4 s on oltp_write, 0.7 s on read_mostly, 0.1 s on audit). *)
let repetitions = function Gen.Oltp_write -> 13 | Gen.Read_mostly -> 17 | Gen.Audit -> 31

(* ------------------------------------------------------------------ *)
(* Output *)

let result_line ~correct ~(tally : Drive.tally) metrics =
  let m =
    List.map
      (fun (name, value, unit) ->
        if not (Float.is_finite value) then failwith (name ^ " is not a finite number");
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name value unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct (max 1 tally.attempted) tally.failed (String.concat ", " m)

let host_record w =
  let window = Ledger_server.Server.default_config.group_commit_window in
  say
    "{\"host\": {\"workload\": %S, \"seed\": %d, \"seconds\": %d, \"trace\": %d, \"nproc\": %d, \
     \"connections\": %d, \"git_rev\": %S, \"data_fs\": %S, \"group_commit_window_ms\": %g, \
     \"fsync_per_batch\": true}}"
    (Gen.workload_name w) !seed !seconds !trace Host.nproc conns (Host.git_rev ())
    (Host.fs_type data_root) (window *. 1000.0)

(* ------------------------------------------------------------------ *)
(* The end-to-end run *)

let end_to_end cfg w ~dir =
  let open Session in
  let setup_times = ref [] in
  let env = ref None in
  for i = 1 to setups do
    let e = setup cfg w ~dir in
    setup_times := e.setup_s :: !setup_times;
    if i < setups then begin
      Drive.C.close e.ctl;
      Host.kill_server e.srv;
      Host.rm_rf dir
    end
    else env := Some e
  done;
  let env = Option.get !env in
  let pass =
    Drive.run_pass ~check_in_latency:(w = Gen.Audit) ~port:env.srv.port ~pin:env.pin
      ~per_conn:(timed_ops cfg w) env.gens
  in
  let tally = pass.tally in
  say "timed: %d ops in %.3f s, failures: %d %s" (Drive.ops pass) pass.elapsed
    tally.failed (Drive.kinds_to_string tally);
  if tally.failed > 0 then (tally, Error (Option.value ~default:"" tally.first))
  else
    let f = finish env ~verifies:(repetitions w) ~recoveries:(repetitions w) in
    let times l = String.concat " " (List.map (Printf.sprintf "%.3f") l) in
    say "verify s: %s; recovery s: %s" (times f.verify_s) (times f.recovery_s);
    let user_bytes = Array.fold_left (fun a g -> a + Gen.bytes_written g) 0 env.gens in
    Host.rm_rf dir;
    ( tally,
      Ok
        [
          ("setup_s", Stats.median (Array.of_list !setup_times), "s");
          ("tps", float_of_int (Drive.ops pass) /. pass.elapsed, "1/s");
          ("p50_us", Stats.percentile pass.lat_us 50.0, "us");
          ("p95_us", Stats.percentile pass.lat_us 95.0, "us");
          ("verify_rows_per_s", float_of_int f.verify_versions /. List.fold_left Float.min infinity f.verify_s, "1/s");
          ("recovery_s", List.fold_left Float.min infinity f.recovery_s, "s");
          ("bytes_per_user_byte", float_of_int f.dir_bytes /. float_of_int user_bytes, "ratio");
          ("peak_rss_mb", f.rss_mb, "MiB");
        ] )

(* A fresh process per timed recovery: the generator's own heap, large
   after the timed phase, would otherwise slow recovery's allocation by a
   varying amount. *)
let recover_only dir =
  let t0 = Host.now () in
  match Sql_ledger.Durable.open_dir ~dir ~name:"served" () with
  | Ok _ ->
      Printf.printf "%.9f\n" (Host.now () -. t0);
      exit 0
  | Error e ->
      prerr_endline e;
      exit 1

let () =
  if !recover_dir <> "" then recover_only !recover_dir;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> exit 3));
  Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> exit 3));
  let w =
    match Gen.workload_of_string !workload with
    | Some w -> w
    | None ->
        prerr_endline usage;
        exit 2
  in
  if !bin = "" || not (Sys.file_exists !bin) then begin
    prerr_endline "perfbench: --sqlledger must name the built sqlledger executable";
    exit 2
  end;
  Fault.Fsutil.mkdir_p data_root;
  host_record w;
  let dir = Filename.concat data_root (Printf.sprintf "%s-%d" (Gen.workload_name w) (Unix.getpid ())) in
  at_exit (fun () ->
      Host.kill_children ();
      Host.remove_run_files dir);
  let cfg = { Session.bin = !bin; seed = !seed; seconds = !seconds; conns } in
  let tally, outcome =
    try if !trace = 0 then end_to_end cfg w ~dir else Layers.traced_run cfg w ~dir
    with
    | Session.Gate msg -> (Drive.new_tally (), Error msg)
    | e -> (Drive.new_tally (), Error ("exception: " ^ Printexc.to_string e))
  in
  match outcome with
  | Ok metrics ->
      List.iter (fun (n, v, u) -> say "  %-26s %14.4f %s" n v u) metrics;
      result_line ~correct:true ~tally metrics
  | Error msg ->
      say "correctness gate failed: %s" msg;
      result_line ~correct:false ~tally [];
      exit 1
