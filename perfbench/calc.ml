(* The benchmark's own arithmetic, kept apart from the simulator so every
   formula can be checked on synthetic inputs (see test/test_calc.ml). *)

let ratio num den = if den = 0.0 then 0.0 else num /. den

let per_txn v ~txns = ratio (float_of_int v) (float_of_int txns)

let failed_frac ~failed ~attempted =
  ratio (float_of_int failed) (float_of_int attempted)

let median = function
  | [] -> 0.0
  | xs ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Samples beyond the [q] quantile; a percentile is reported only with at
   least ten of these behind it. *)
let tail_samples ~count q =
  count - int_of_float (Float.ceil (q *. float_of_int count))

module Hist = struct
  (* Every latency sample is kept (one float each), so quantiles are exact
     nearest-rank values and repeat bit-for-bit for a fixed seed. *)
  type t = { mutable data : float array; mutable len : int; mutable sum : float }

  let create () = { data = Array.make 4096 0.0; len = 0; sum = 0.0 }

  let add t v =
    if t.len = Array.length t.data then begin
      let bigger = Array.make (2 * t.len) 0.0 in
      Array.blit t.data 0 bigger 0 t.len;
      t.data <- bigger
    end;
    t.data.(t.len) <- v;
    t.len <- t.len + 1;
    t.sum <- t.sum +. v

  let count t = t.len
  let mean t = ratio t.sum (float_of_int t.len)

  let quantile t q =
    let a = Array.sub t.data 0 t.len in
    Array.sort Float.compare a;
    Poe_analysis.Attribution.quantile a q
end

(* Longest run of consecutive empty buckets among those starting at or
   after [after], in seconds. [series] is [(bucket_start, count)] in time
   order with a fixed bucket width; a run still open at the end of the
   series counts up to the series' end. *)
let longest_empty_run ~bucket ~after series =
  let best, cur =
    List.fold_left
      (fun (best, cur) (start, count) ->
        if start +. 1e-12 < after then (best, 0)
        else if count = 0.0 then (best, cur + 1)
        else (max best cur, 0))
      (0, 0) series
  in
  float_of_int (max best cur) *. bucket

(* A layer's self time: its span total minus what its children covered. *)
let self_time ~total ~children = total -. List.fold_left ( +. ) 0.0 children
