(* The benchmark's own statistics: medians, Python-compatible quartiles,
   the ten-samples-beyond rule for tail percentiles, and the result
   line's JSON round trip. *)

module P = Perfstats

let flt = Alcotest.float 1e-12
let triple = Alcotest.(triple flt flt flt)

let test_median () =
  Alcotest.check flt "odd" 3. (P.median [ 5.; 1.; 3. ]);
  Alcotest.check flt "even" 2.5 (P.median [ 4.; 1.; 3.; 2. ]);
  Alcotest.check flt "single" 7. (P.median [ 7. ]);
  Alcotest.check_raises "empty" (Invalid_argument "Perfstats.median: no samples") (fun () ->
      ignore (P.median []))

let test_least () =
  Alcotest.check flt "least" 0.5 (P.least [ 2.; 0.5; 1. ]);
  Alcotest.check flt "single" 7. (P.least [ 7. ]);
  Alcotest.check_raises "empty" (Invalid_argument "Perfstats.least: no samples") (fun () ->
      ignore (P.least []))

(* Expected values are what Python's statistics.quantiles(xs, n=4)
   returns for the same inputs. *)
let test_quartiles () =
  Alcotest.check triple "1..5" (1.5, 3.0, 4.5) (P.quartiles [ 1.; 2.; 3.; 4.; 5. ]);
  Alcotest.check triple "1..10" (2.75, 5.5, 8.25) (P.quartiles (List.init 10 (fun i -> float (i + 1))));
  Alcotest.check triple "two, unsorted" (0.5, 2.0, 3.5) (P.quartiles [ 3.; 1. ]);
  Alcotest.check triple "four" (12.5, 25.0, 37.5) (P.quartiles [ 40.; 10.; 30.; 20. ]);
  Alcotest.check flt "spread" ((8.25 -. 2.75) /. 5.5)
    (P.spread (List.init 10 (fun i -> float (i + 1))))

let test_tail () =
  let upto n = List.init n (fun i -> float (i + 1)) in
  Alcotest.(check (option flt)) "p90 of 100: ten beyond" (Some 90.) (P.tail 90. (upto 100));
  Alcotest.(check (option flt)) "p90 of 99: nine beyond" None (P.tail 90. (upto 99));
  Alcotest.(check (option flt)) "p99 of 1000" (Some 990.) (P.tail 99. (upto 1000));
  Alcotest.(check (option flt)) "p99 of 999" None (P.tail 99. (upto 999));
  Alcotest.(check (option flt)) "p50 of 20" (Some 10.) (P.tail 50. (upto 20));
  Alcotest.(check (option flt)) "empty" None (P.tail 90. [])

let summary =
  {
    P.correct = true;
    attempted = 1000;
    failed = 0;
    metrics =
      [
        { P.name = "latency_ms"; value = 1.2034; unit_ = "ms" };
        { P.name = "setup_s"; value = 0.8127000000000001; unit_ = "s" };
        { P.name = "jobs_per_s"; value = 3.8156280517578125e-7; unit_ = "1/s" };
        { P.name = "walk.schemas"; value = 6680.; unit_ = "count" };
        { P.name = "odd \"unit\""; value = -0.1; unit_ = "%\\" };
      ];
  }

let test_round_trip () =
  let line = P.to_string (P.summary_to_json summary) in
  Alcotest.(check bool) "one line" false (String.contains line '\n');
  let back = P.summary_of_json (P.of_string line) in
  Alcotest.(check bool) "correct" summary.correct back.correct;
  Alcotest.(check int) "attempted" summary.attempted back.attempted;
  Alcotest.(check int) "failed" summary.failed back.failed;
  Alcotest.(check (list (triple string (float 0.) string)))
    "metrics, bit for bit"
    (List.map (fun m -> (m.P.name, m.P.value, m.P.unit_)) summary.metrics)
    (List.map (fun m -> (m.P.name, m.P.value, m.P.unit_)) back.metrics);
  Alcotest.(check string) "integers print without a fraction" "6680"
    (P.to_string (P.Num 6680.))

let test_non_finite () =
  let bad = { summary with metrics = [ { P.name = "x"; value = nan; unit_ = "s" } ] } in
  let back = P.summary_of_json (P.of_string (P.to_string (P.summary_to_json bad))) in
  Alcotest.(check bool) "a non-finite value makes the result incorrect" false back.correct

let test_parse_errors () =
  List.iter
    (fun s ->
      match P.of_string s with
      | _ -> Alcotest.failf "accepted %S" s
      | exception P.Parse_error _ -> ())
    [ ""; "{"; "{\"a\": }"; "[1, 2"; "tru"; "{\"a\": 1} x"; "\"unterminated" ]

let () =
  Alcotest.run "perfstats"
    [
      ( "order statistics",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "least" `Quick test_least;
          Alcotest.test_case "quartiles match Python" `Quick test_quartiles;
          Alcotest.test_case "tail needs ten beyond" `Quick test_tail;
        ] );
      ( "result line",
        [
          Alcotest.test_case "round trip" `Quick test_round_trip;
          Alcotest.test_case "non-finite" `Quick test_non_finite;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
        ] );
    ]
