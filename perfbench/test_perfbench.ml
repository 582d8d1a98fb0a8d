(* Tests for the benchmark's own helpers: the order statistics, the span
   self-time arithmetic, and the determinism of the seeded operation
   streams. *)

let check_float ?(eps = 1e-9) what expected got =
  if Float.abs (expected -. got) > eps then
    failwith (Printf.sprintf "%s: expected %g, got %g" what expected got)

let check what cond = if not cond then failwith what

let test_percentiles () =
  let a = [| 5.0; 1.0; 4.0; 2.0; 3.0 |] in
  check_float "median of odd count" 3.0 (Stats.median a);
  check_float "median of even count" 2.5 (Stats.median [| 1.0; 2.0; 3.0; 4.0 |]);
  check_float "p0" 1.0 (Stats.percentile a 0.0);
  check_float "p100" 5.0 (Stats.percentile a 100.0);
  check_float "p25 interpolates" 2.0 (Stats.percentile a 25.0);
  check_float "p90 interpolates" 4.6 (Stats.percentile a 90.0);
  check_float "single sample" 7.0 (Stats.percentile [| 7.0 |] 95.0);
  check "empty sample is nan" (Float.is_nan (Stats.percentile [||] 50.0));
  check_float "input left unsorted" 5.0 a.(0);
  check_float "fast quartile of durations" 2.0 (Stats.fast_quartile `Lower a);
  check_float "fast quartile of rates" 4.0 (Stats.fast_quartile `Higher a)

let test_self_time () =
  check_float "no children" 10.0 (Stats.self_time ~start:0.0 ~stop:10.0 []);
  check_float "disjoint children" 5.0
    (Stats.self_time ~start:0.0 ~stop:10.0 [ (1.0, 3.0); (5.0, 8.0) ]);
  check_float "overlapping children count once" 4.0
    (Stats.self_time ~start:0.0 ~stop:10.0 [ (1.0, 5.0); (3.0, 7.0) ]);
  check_float "children clipped to the parent" 8.0
    (Stats.self_time ~start:0.0 ~stop:10.0 [ (-5.0, 1.0); (9.0, 20.0) ]);
  check_float "covered" 5.0 (Stats.covered ~lo:0.0 ~hi:10.0 [ (2.0, 4.0); (3.0, 6.0); (8.0, 9.0) ])

(* Hand-built spans: op 0 has a root with two children, one of which has
   a grandchild; op 1 only enters layer "a". *)
let test_trace_layers () =
  let span id name op parent start stop = { Trace.id; name; op; parent; start; stop } in
  let spans =
    [
      span 0 "root" 0 (-1) 0.0 10e-6;
      span 1 "a" 0 0 1e-6 4e-6;
      span 2 "b" 0 0 5e-6 9e-6;
      span 3 "c" 0 2 6e-6 7e-6;
      span 4 "root" 1 (-1) 20e-6 30e-6;
      span 5 "a" 1 4 21e-6 29e-6;
    ]
  in
  let by_layer = Trace.self_by_layer spans in
  check_float ~eps:1e-6 "root self time" 2.0 (Trace.layer_percentile by_layer "root" 0.0);
  check_float ~eps:1e-6 "b self time excludes c" 3.0 (Trace.layer_percentile by_layer "b" 50.0);
  check_float ~eps:1e-6 "a over the ops that entered it" 5.5 (Trace.layer_percentile by_layer "a" 50.0);
  check "absent layer is nan" (Float.is_nan (Trace.layer_percentile by_layer "zzz" 50.0));
  check "two ops" (Trace.op_count spans = 2);
  (* b ran in op 0 only: its median over both ops is (0 + 3) / 2. *)
  check_float ~eps:1e-6 "blocking sum counts absent layers as 0" (5.5 +. 1.5)
    (Trace.blocking_p50_sum by_layer ~ops:2 [ "a"; "b" ])

let test_recorder () =
  let tr = Trace.create () in
  let v =
    Trace.with_span tr ~op:7 "outer" (fun () -> Trace.with_span tr ~op:7 "inner" (fun () -> 42))
  in
  check "value passes through" (v = 42);
  (match Trace.spans tr with
  | [ inner; outer ] ->
      check "inner recorded first" (inner.Trace.name = "inner" && outer.Trace.name = "outer");
      check "parent link" (inner.Trace.parent = outer.Trace.id && outer.Trace.parent = -1);
      check "nested interval" (outer.Trace.start <= inner.Trace.start && inner.Trace.stop <= outer.Trace.stop)
  | _ -> failwith "expected two spans");
  (match Trace.with_span tr ~op:8 "failing" (fun () -> failwith "boom") with
  | exception Failure _ -> ()
  | _ -> failwith "exception swallowed");
  check "span closed on exception" (List.length (Trace.spans tr) = 3)

let stream w ~seed ~conn n =
  let g = Gen.create w ~seed ~conn ~conns:2 in
  let pre = Gen.preload_statements g in
  if w = Gen.Audit then Gen.set_history g (Array.init 500 (fun i -> i + 1));
  (pre, List.init n (fun _ -> Gen.next g))

let test_streams () =
  List.iter
    (fun w ->
      let name = Gen.workload_name w in
      check (name ^ ": same seed, same stream") (stream w ~seed:5 ~conn:0 300 = stream w ~seed:5 ~conn:0 300);
      check (name ^ ": another seed, another stream") (stream w ~seed:5 ~conn:0 300 <> stream w ~seed:6 ~conn:0 300);
      check (name ^ ": connections differ") (stream w ~seed:5 ~conn:0 300 <> stream w ~seed:5 ~conn:1 300))
    Gen.workloads

(* Each connection writes only its own keys, so concurrent connections
   never contradict one another's model. *)
let test_key_ranges () =
  let rows conn =
    let g = Gen.create Gen.Oltp_write ~seed:3 ~conn ~conns:2 in
    ignore (Gen.preload_statements g);
    for _ = 1 to 2000 do
      ignore (Gen.next g)
    done;
    List.map (fun (r : Gen.row) -> r.id) (Gen.rows g)
  in
  List.iter (fun id -> check "conn 0 owns odd keys" (id mod 2 = 1)) (rows 0);
  List.iter (fun id -> check "conn 1 owns even keys" (id mod 2 = 0)) (rows 1)

let () =
  List.iter
    (fun (name, f) ->
      f ();
      Printf.printf "ok %s\n" name)
    [
      ("percentiles", test_percentiles);
      ("self time", test_self_time);
      ("trace layers", test_trace_layers);
      ("recorder", test_recorder);
      ("seeded streams", test_streams);
      ("key ranges", test_key_ranges);
    ]
