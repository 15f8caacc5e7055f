(* The benchmark's own arithmetic, on synthetic inputs. *)

let feq = Alcotest.float 1e-12

let series counts =
  List.mapi (fun i c -> (float_of_int i *. 0.01, float_of_int c)) counts

let gap ~after counts =
  Calc.longest_empty_run ~bucket:0.01 ~after (series counts)

let test_gap_at_start () =
  Alcotest.check feq "leading empty buckets" 0.03 (gap ~after:0.0 [ 0; 0; 0; 4; 5 ])

let test_gap_at_end () =
  Alcotest.check feq "run still open at the end" 0.02
    (gap ~after:0.0 [ 3; 0; 4; 0; 0 ])

let test_no_gap () =
  Alcotest.check feq "no empty bucket" 0.0 (gap ~after:0.0 [ 1; 2; 3 ]);
  Alcotest.check feq "empty series" 0.0 (gap ~after:0.0 [])

let test_gap_after () =
  (* buckets before [after] do not count, even when empty *)
  Alcotest.check feq "only after the crash" 0.01
    (gap ~after:0.03 [ 0; 0; 0; 2; 0; 7 ]);
  Alcotest.check feq "longest of several" 0.03
    (gap ~after:0.0 [ 1; 0; 2; 0; 0; 0; 3; 0; 0 ])

let hist_of xs =
  let h = Calc.Hist.create () in
  List.iter (Calc.Hist.add h) xs;
  h

let test_p999 () =
  let h = hist_of (List.init 2000 (fun i -> float_of_int (2000 - i))) in
  Alcotest.check feq "nearest rank of 2000" 1998.0 (Calc.Hist.quantile h 0.999);
  Alcotest.check feq "median" 1000.0 (Calc.Hist.quantile h 0.5);
  Alcotest.(check int) "two samples beyond p99.9" 2
    (Calc.tail_samples ~count:2000 0.999);
  let small = hist_of [ 3.0; 1.0; 2.0 ] in
  Alcotest.check feq "few samples: the maximum" 3.0
    (Calc.Hist.quantile small 0.999);
  Alcotest.check feq "empty histogram" 0.0
    (Calc.Hist.quantile (Calc.Hist.create ()) 0.999);
  Alcotest.check feq "mean" 2.0 (Calc.Hist.mean small)

let test_failed_frac () =
  Alcotest.check feq "zero attempts" 0.0 (Calc.failed_frac ~failed:0 ~attempted:0);
  Alcotest.check feq "one in four" 0.25 (Calc.failed_frac ~failed:1 ~attempted:4)

let test_per_txn () =
  Alcotest.check feq "zero completions" 0.0 (Calc.per_txn 12345 ~txns:0);
  Alcotest.check feq "ratio" 2.5 (Calc.per_txn 5 ~txns:2);
  Alcotest.check feq "zero denominator" 0.0 (Calc.ratio 1.0 0.0)

let test_median_and_self () =
  Alcotest.check feq "odd" 2.0 (Calc.median [ 3.0; 1.0; 2.0 ]);
  Alcotest.check feq "even" 2.5 (Calc.median [ 4.0; 1.0; 2.0; 3.0 ]);
  Alcotest.check feq "empty" 0.0 (Calc.median []);
  Alcotest.check feq "self time" 0.5
    (Calc.self_time ~total:2.0 ~children:[ 1.0; 0.5 ])

let () =
  Alcotest.run "perfbench"
    [
      ( "gap",
        [
          Alcotest.test_case "gap at the start" `Quick test_gap_at_start;
          Alcotest.test_case "gap at the end" `Quick test_gap_at_end;
          Alcotest.test_case "no gap" `Quick test_no_gap;
          Alcotest.test_case "gap after the crash only" `Quick test_gap_after;
        ] );
      ( "arithmetic",
        [
          Alcotest.test_case "p99.9 from the latency histogram" `Quick test_p999;
          Alcotest.test_case "failed fraction with zero attempts" `Quick
            test_failed_frac;
          Alcotest.test_case "per-txn ratios with zero completions" `Quick
            test_per_txn;
          Alcotest.test_case "median and self time" `Quick test_median_and_self;
        ] );
    ]
