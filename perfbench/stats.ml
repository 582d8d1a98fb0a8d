(* Order statistics for the benchmark's reports.

   Percentiles interpolate linearly between the two nearest ranks (the
   "linear" method of numpy and R's type 7), so the median of an even
   count is the mean of the two middle values and a percentile of one
   sample is that sample. *)

let sorted_copy values =
  let a = Array.copy values in
  Array.sort Float.compare a;
  a

(* [p] in [0, 100]. [nan] for an empty sample. *)
let percentile_sorted a p =
  let n = Array.length a in
  if n = 0 then nan
  else if n = 1 then a.(0)
  else
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = min (n - 1) (int_of_float rank) in
    let hi = min (n - 1) (lo + 1) in
    let frac = rank -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let percentile values p = percentile_sorted (sorted_copy values) p
let median values = percentile values 50.0

(* The fast-side quartile of repeated measurements of one quantity: the
   25th percentile of durations ([`Lower] is better), the 75th of rates.
   Interference from outside the benchmark only ever slows a repetition
   down, so this side of the distribution is the steadier estimate of
   the program's own cost. *)
let fast_quartile better values =
  percentile values (match better with `Lower -> 25.0 | `Higher -> 75.0)

let mean values =
  let n = Array.length values in
  if n = 0 then nan else Array.fold_left ( +. ) 0.0 values /. float_of_int n

(* Length of the union of [intervals], each clipped to [lo, hi]:
   overlapping children are counted once. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let rec go acc cur = function
    | [] -> ( match cur with Some (a, b) -> acc +. (b -. a) | None -> acc)
    | (a, b) :: rest -> (
        match cur with
        | None -> go acc (Some (a, b)) rest
        | Some (ca, cb) ->
            if a <= cb then go acc (Some (ca, Float.max cb b)) rest
            else go (acc +. (cb -. ca)) (Some (a, b)) rest)
  in
  go 0.0 None clipped

(* A span's self time: its duration minus the part of it that its
   children cover. *)
let self_time ~start ~stop children =
  Float.max 0.0 (stop -. start -. covered ~lo:start ~hi:stop children)
