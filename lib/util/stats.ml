type summary = {
  n : int;
  min : float;
  max : float;
  mean : float;
  t_mean : float;
  p90 : float;
  p98 : float;
  stddev : float;
}

let check_nonempty name xs =
  if Array.length xs = 0 then invalid_arg ("Stats." ^ name ^ ": empty input")

let sorted_copy xs =
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  sorted

let check_pct p =
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p outside [0,100]"

(* [percentile] over an already sorted, non-empty array. *)
let percentile_sorted sorted p =
  let n = Array.length sorted in
  if n = 1 then sorted.(0)
  else begin
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)
  end

let percentile xs p =
  check_nonempty "percentile" xs;
  check_pct p;
  percentile_sorted (sorted_copy xs) p

let mean xs =
  check_nonempty "mean" xs;
  Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

let stddev xs =
  check_nonempty "stddev" xs;
  let m = mean xs in
  let var =
    Array.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 xs
    /. float_of_int (Array.length xs)
  in
  sqrt var

(* The kept values are summed in their original order, as they always
   were: the sort only locates the percentile bounds. *)
let trimmed_mean_sorted xs sorted ~lo_pct ~hi_pct =
  let lo = percentile_sorted sorted lo_pct
  and hi = percentile_sorted sorted hi_pct in
  let kept = Array.of_list (List.filter (fun x -> lo <= x && x <= hi) (Array.to_list xs)) in
  if Array.length kept = 0 then mean xs else mean kept

let trimmed_mean xs ~lo_pct ~hi_pct =
  check_nonempty "trimmed_mean" xs;
  check_pct lo_pct;
  check_pct hi_pct;
  trimmed_mean_sorted xs (sorted_copy xs) ~lo_pct ~hi_pct

let summarize xs =
  check_nonempty "summarize" xs;
  let min = Array.fold_left Float.min xs.(0) xs in
  let max = Array.fold_left Float.max xs.(0) xs in
  let sorted = sorted_copy xs in
  {
    n = Array.length xs;
    min;
    max;
    mean = mean xs;
    t_mean = trimmed_mean_sorted xs sorted ~lo_pct:10.0 ~hi_pct:90.0;
    p90 = percentile_sorted sorted 90.0;
    p98 = percentile_sorted sorted 98.0;
    stddev = stddev xs;
  }

let pp_summary ppf s =
  Format.fprintf ppf
    "{n=%d; min=%.2f; max=%.2f; mean=%.2f; t_mean=%.2f; p90=%.2f; p98=%.2f}"
    s.n s.min s.max s.mean s.t_mean s.p90 s.p98
