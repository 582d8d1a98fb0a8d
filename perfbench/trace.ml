(* In-memory span recorder for the traced run.

   A span has a name (the layer it times), a start and end in seconds, the
   span that caused it, and the id of the generated operation it belongs
   to. Spans are kept in memory and written out once the run ends, so
   recording costs two clock reads and one allocation. A recorder is not
   thread-safe: each load-generator connection owns one, and [id_base]
   keeps their span ids disjoint when they are merged. *)

(* Seconds on the monotonic clock, with nanosecond resolution: spans of a
   few hundred nanoseconds still measure. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type span = {
  id : int;
  name : string;
  op : int;
  parent : int;  (** -1 for a root span *)
  start : float;
  stop : float;
}

type t = {
  mutable spans : span list;
  mutable next : int;
  mutable stack : int list;  (* open spans, innermost first *)
}

let create ?(id_base = 0) () = { spans = []; next = id_base; stack = [] }

let with_span t ~op name f =
  let id = t.next in
  t.next <- id + 1;
  let parent = match t.stack with p :: _ -> p | [] -> -1 in
  t.stack <- id :: t.stack;
  let start = now () in
  let finish () =
    let stop = now () in
    t.stack <- List.tl t.stack;
    t.spans <- { id; name; op; parent; start; stop } :: t.spans
  in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

let spans t = List.rev t.spans

(* Self time of every span, in microseconds, paired with the span. *)
let self_times spans =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          ((s.start, s.stop)
          :: Option.value ~default:[] (Hashtbl.find_opt children s.parent)))
    spans;
  List.map
    (fun s ->
      let kids = Option.value ~default:[] (Hashtbl.find_opt children s.id) in
      (s, 1e6 *. Stats.self_time ~start:s.start ~stop:s.stop kids))
    spans

(* Per operation, the summed self time of each layer's spans:
   [layer -> (op -> us)]. *)
let self_by_layer spans =
  let by_layer = Hashtbl.create 16 in
  List.iter
    (fun (s, us) ->
      let ops =
        match Hashtbl.find_opt by_layer s.name with
        | Some h -> h
        | None ->
            let h = Hashtbl.create 1024 in
            Hashtbl.add by_layer s.name h;
            h
      in
      Hashtbl.replace ops s.op
        (us +. Option.value ~default:0.0 (Hashtbl.find_opt ops s.op)))
    (self_times spans);
  by_layer

let op_count spans =
  let seen = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.replace seen s.op ()) spans;
  Hashtbl.length seen

(* Percentile [p] of a layer's per-operation self time over the
   operations that entered the layer; [nan] when none did. *)
let layer_percentile by_layer name p =
  match Hashtbl.find_opt by_layer name with
  | None -> nan
  | Some ops ->
      Stats.percentile (Array.of_seq (Hashtbl.to_seq_values ops)) p

(* Sum over [layers] of each layer's median self time per operation,
   counting an operation that never entered a layer as 0 us there: the
   time the blocking steps account for in a typical operation of the
   mix. *)
let blocking_p50_sum by_layer ~ops layers =
  List.fold_left
    (fun acc name ->
      match Hashtbl.find_opt by_layer name with
      | None -> acc
      | Some per_op ->
          let v = Array.make ops 0.0 in
          let i = ref 0 in
          Hashtbl.iter
            (fun _ us ->
              if !i < ops then v.(!i) <- us;
              incr i)
            per_op;
          acc +. Stats.median v)
    0.0 layers

let write_jsonl path spans =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"name\":%S,\"op\":%d,\"parent\":%d,\"start\":%.6f,\"end\":%.6f}\n"
            s.id s.name s.op s.parent s.start s.stop)
        spans)
