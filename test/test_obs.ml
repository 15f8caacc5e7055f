(* Tests for the observability layer (lib/obs): histogram quantiles
   against a brute-force oracle, trace ring-buffer wraparound, Chrome
   trace export well-formedness (checked with a small JSON parser), and
   an end-to-end PoE run asserting the per-slot phase span structure
   and byte-identical exports across same-seed runs. *)

module Trace = Poe_obs.Trace
module Metrics = Poe_obs.Metrics
module R = Poe_runtime
module Config = R.Config
module Cluster = Poe_harness.Cluster

(* ------------------------------------------------------------------ *)
(* Histogram quantiles vs brute force                                  *)

(* Deterministic generator: tests must not depend on global RNG state. *)
let lcg seed =
  let state = ref seed in
  fun () ->
    state := ((!state * 25214903917) + 11) land ((1 lsl 48) - 1);
    float_of_int ((!state lsr 16) land 0xFFFFFF) /. float_of_int 0x1000000

let test_quantile_oracle () =
  let reg = Metrics.create () in
  let h = Metrics.histogram reg "lat" in
  let next = lcg 42 in
  let samples =
    Array.init 2000 (fun _ ->
        (* Spread over ~7 decades, the realistic latency range. *)
        1e-6 *. (10.0 ** (next () *. 7.0)))
  in
  Array.iter (Metrics.observe h) samples;
  let sorted = Array.copy samples in
  Array.sort compare sorted;
  let n = Array.length sorted in
  List.iter
    (fun q ->
      let idx = max 0 (int_of_float (ceil (q *. float_of_int n)) - 1) in
      let oracle = sorted.(idx) in
      let est = Metrics.quantile h q in
      Alcotest.(check bool)
        (Printf.sprintf "q=%.2f upper bound (oracle %g, est %g)" q oracle est)
        true
        (est >= oracle *. (1.0 -. 1e-9));
      Alcotest.(check bool)
        (Printf.sprintf "q=%.2f within one bucket (oracle %g, est %g)" q oracle
           est)
        true
        (est <= (oracle *. Metrics.bucket_ratio *. (1.0 +. 1e-9))))
    [ 0.5; 0.9; 0.95; 0.99 ];
  Alcotest.(check int) "count" n (Metrics.hist_count h);
  let sum = Array.fold_left ( +. ) 0.0 samples in
  Alcotest.(check bool) "sum" true
    (abs_float (Metrics.hist_sum h -. sum) < 1e-9 *. sum);
  Alcotest.(check (float 1e-12)) "max is exact" sorted.(n - 1) (Metrics.hist_max h);
  Alcotest.(check (float 1e-12)) "p100 clamps to max" sorted.(n - 1)
    (Metrics.quantile h 1.0)

let test_quantile_empty () =
  let reg = Metrics.create () in
  let h = Metrics.histogram reg "empty" in
  Alcotest.(check (float 0.0)) "empty quantile" 0.0 (Metrics.quantile h 0.99);
  Alcotest.(check int) "empty count" 0 (Metrics.hist_count h)

(* ------------------------------------------------------------------ *)
(* Ring buffer                                                         *)

let test_ring_wraparound () =
  let tr = Trace.create ~capacity:8 () in
  Trace.set tr;
  for i = 0 to 19 do
    Trace.instant ~ts:(float_of_int i) ~node:0 ~cat:"test" "tick"
  done;
  Trace.clear ();
  let evs = Trace.events tr in
  Alcotest.(check int) "retains capacity" 8 (List.length evs);
  Alcotest.(check int) "dropped the rest" 12 (Trace.dropped tr);
  Alcotest.(check (float 0.0)) "oldest retained is #12" 12.0
    (List.hd evs).Trace.ts;
  Alcotest.(check (float 0.0)) "newest retained is #19" 19.0
    (List.nth evs 7).Trace.ts

let test_disabled_emitters_are_noops () =
  Trace.clear ();
  Metrics.clear_current ();
  Alcotest.(check bool) "trace disabled" false (Trace.enabled ());
  Alcotest.(check bool) "metrics disabled" false (Metrics.enabled ());
  (* None of these should raise or allocate a sink. *)
  Trace.instant ~ts:0.0 ~node:0 ~cat:"x" "e";
  Trace.phase ~ts:0.0 ~node:0 ~cat:"x" ~view:0 ~seqno:0 "p";
  Alcotest.(check (option (float 0.0))) "slot_done none" None
    (Trace.slot_done ~ts:1.0 ~node:0 ~view:0 ~seqno:0);
  Metrics.hobs "h" 1.0

(* ------------------------------------------------------------------ *)
(* A minimal JSON parser (no JSON library in the image), used to check
   the Chrome export is well-formed.                                   *)

type json =
  | J_null
  | J_bool of bool
  | J_num of float
  | J_str of string
  | J_arr of json list
  | J_obj of (string * json) list

exception Bad_json of string

let parse_json (s : string) : json =
  let pos = ref 0 in
  let len = String.length s in
  let peek () = if !pos < len then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at %d" msg !pos)) in
  let skip_ws () =
    while
      !pos < len
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    if peek () = Some c then advance ()
    else fail (Printf.sprintf "expected %c" c)
  in
  let literal lit v =
    if !pos + String.length lit <= len && String.sub s !pos (String.length lit) = lit
    then begin
      pos := !pos + String.length lit;
      v
    end
    else fail ("expected " ^ lit)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec loop () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some 'n' -> advance (); Buffer.add_char b '\n'; loop ()
          | Some 't' -> advance (); Buffer.add_char b '\t'; loop ()
          | Some 'r' -> advance (); Buffer.add_char b '\r'; loop ()
          | Some '"' -> advance (); Buffer.add_char b '"'; loop ()
          | Some '\\' -> advance (); Buffer.add_char b '\\'; loop ()
          | Some '/' -> advance (); Buffer.add_char b '/'; loop ()
          | Some 'u' ->
              advance ();
              if !pos + 4 > len then fail "bad \\u escape";
              pos := !pos + 4;
              Buffer.add_char b '?';
              loop ()
          | _ -> fail "bad escape")
      | Some c -> advance (); Buffer.add_char b c; loop ()
    in
    loop ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    while
      !pos < len
      &&
      match s.[!pos] with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin advance (); J_obj [] end
        else
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); members ((k, v) :: acc)
            | Some '}' -> advance (); J_obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected , or }"
          in
          members []
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin advance (); J_arr [] end
        else
          let rec elems acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); elems (v :: acc)
            | Some ']' -> advance (); J_arr (List.rev (v :: acc))
            | _ -> fail "expected , or ]"
          in
          elems []
    | Some '"' -> J_str (parse_string ())
    | Some 't' -> literal "true" (J_bool true)
    | Some 'f' -> literal "false" (J_bool false)
    | Some 'n' -> literal "null" J_null
    | Some _ -> J_num (parse_number ())
    | None -> fail "unexpected end"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> len then fail "trailing garbage";
  v

let obj_field name = function
  | J_obj fields -> List.assoc_opt name fields
  | _ -> None

let obj_str name j =
  match obj_field name j with Some (J_str s) -> Some s | _ -> None

(* ------------------------------------------------------------------ *)
(* Chrome export well-formedness on a synthetic trace                  *)

let test_chrome_export_wellformed () =
  let tr = Trace.create () in
  Trace.set tr;
  List.iter
    (fun (ts, phase) ->
      Trace.phase ~ts ~node:0 ~cat:"poe" ~view:0 ~seqno:7 phase)
    [ (0.001, "propose"); (0.002, "support"); (0.003, "certify") ];
  ignore (Trace.slot_done ~ts:0.004 ~node:0 ~view:0 ~seqno:7);
  Trace.instant ~ts:0.005 ~node:1 ~cat:"poe" ~view:1 "view_change";
  Trace.complete ~tid:3 ~ts:0.001 ~dur:0.0005 ~node:1 ~cat:"server"
    ~args:[ ("lane", Trace.I 0); ("note", Trace.S "a\"b\\c\n") ]
    "worker";
  Trace.clear ();
  let buf = Buffer.create 1024 in
  Trace.export_chrome tr buf;
  let j = parse_json (Buffer.contents buf) in
  let events =
    match obj_field "traceEvents" j with
    | Some (J_arr l) -> l
    | _ -> Alcotest.fail "no traceEvents array"
  in
  let phs = List.filter_map (obj_str "ph") events in
  let count code = List.length (List.filter (String.equal code) phs) in
  Alcotest.(check int) "metadata per node" 2 (count "M");
  (* slot + 3 phases open; all of them close. *)
  Alcotest.(check int) "async begins" 4 (count "b");
  Alcotest.(check int) "async ends" 4 (count "e");
  Alcotest.(check int) "instants" 1 (count "i");
  Alcotest.(check int) "complete spans" 1 (count "X");
  List.iter
    (fun ev ->
      match obj_str "ph" ev with
      | Some ("b" | "e") ->
          (match obj_field "id2" ev with
          | Some (J_obj [ ("local", J_str _) ]) -> ()
          | _ -> Alcotest.fail "async event without local id2")
      | _ -> ())
    events

let test_jsonl_export_parses () =
  let tr = Trace.create () in
  Trace.set tr;
  Trace.instant ~ts:0.25 ~node:2 ~cat:"net" ~args:[ ("sz", Trace.I 9) ] "send";
  Trace.phase ~ts:0.5 ~node:2 ~cat:"pbft" ~view:1 ~seqno:3 "prepare";
  Trace.clear ();
  let buf = Buffer.create 256 in
  Trace.export_jsonl tr buf;
  let lines =
    String.split_on_char '\n' (Buffer.contents buf)
    |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check int) "one line per event" 3 (List.length lines);
  List.iter
    (fun line ->
      match parse_json line with
      | J_obj _ -> ()
      | _ -> Alcotest.fail "jsonl line is not an object")
    lines

(* ------------------------------------------------------------------ *)
(* End-to-end: a PoE cluster emits nested slot/phase spans             *)

let small_config ?(seed = 7) () =
  Config.make ~n:4 ~batch_size:5 ~clients_per_hub:10 ~n_hubs:1 ~seed ()

let run_traced ?seed () =
  let tr = Trace.create () in
  let reg = Metrics.create () in
  Trace.set tr;
  Metrics.set_current reg;
  let module C = Cluster.Make (Poe_core.Poe_protocol) in
  let c =
    C.build
      {
        (Cluster.default_params ~config:(small_config ?seed ())) with
        warmup = 0.1;
        measure = 0.4;
      }
  in
  C.run c;
  Trace.clear ();
  Metrics.clear_current ();
  (tr, reg)

let test_poe_phase_nesting () =
  let tr, reg = run_traced () in
  let evs = Trace.events tr in
  Alcotest.(check int) "nothing dropped" 0 (Trace.dropped tr);
  (* For every closed slot on node 0, phases must begin in protocol
     order and every begin must have a matching end. *)
  let slot_events seqno =
    List.filter
      (fun e -> e.Trace.node = 0 && e.Trace.seqno = seqno && e.Trace.tid = 0)
      evs
  in
  let closed_slots =
    List.filter_map
      (fun e ->
        if
          e.Trace.node = 0 && e.Trace.name = "slot"
          && e.Trace.ph = Trace.Span_end
        then Some e.Trace.seqno
        else None)
      evs
  in
  Alcotest.(check bool) "some slots closed" true (List.length closed_slots > 3);
  List.iter
    (fun seqno ->
      let begins =
        List.filter_map
          (fun e ->
            match e.Trace.ph with
            | Trace.Span_begin when e.Trace.name <> "slot" ->
                Some e.Trace.name
            | _ -> None)
          (slot_events seqno)
      in
      Alcotest.(check (list string))
        (Printf.sprintf "phase order, slot %d" seqno)
        [ "propose"; "support"; "certify"; "execute" ]
        begins;
      let count ph name =
        List.length
          (List.filter
             (fun e -> e.Trace.ph = ph && e.Trace.name = name)
             (slot_events seqno))
      in
      List.iter
        (fun name ->
          Alcotest.(check int)
            (Printf.sprintf "balanced %s spans, slot %d" name seqno)
            (count Trace.Span_begin name) (count Trace.Span_end name))
        [ "slot"; "propose"; "support"; "certify"; "execute" ])
    closed_slots;
  (* Execution latency flowed into the metrics registry too. *)
  let h = Metrics.histogram reg "exec.slot_latency" in
  Alcotest.(check bool) "slot latencies recorded" true
    (Metrics.hist_count h > 3);
  Alcotest.(check bool) "lane samples recorded" true
    (Metrics.hist_count (Metrics.histogram reg "lane.worker.queue_depth") > 0)

let test_deterministic_exports () =
  let export (tr, reg) =
    let buf = Buffer.create 4096 in
    Trace.export_jsonl tr buf;
    let cbuf = Buffer.create 4096 in
    Trace.export_chrome tr cbuf;
    let rows =
      Format.asprintf "%a" Metrics.pp_summary reg
    in
    (Buffer.contents buf, Buffer.contents cbuf, rows)
  in
  let a = export (run_traced ~seed:11 ()) in
  let b = export (run_traced ~seed:11 ()) in
  let c = export (run_traced ~seed:12 ()) in
  let j1, c1, m1 = a and j2, c2, m2 = b and j3, _, _ = c in
  Alcotest.(check bool) "traces are non-trivial" true
    (String.length j1 > 1000);
  Alcotest.(check string) "jsonl byte-identical across same-seed runs" j1 j2;
  Alcotest.(check string) "chrome byte-identical across same-seed runs" c1 c2;
  Alcotest.(check string) "metrics byte-identical across same-seed runs" m1 m2;
  Alcotest.(check bool) "different seed, different trace" true (j1 <> j3)

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "quantile vs oracle" `Quick test_quantile_oracle;
          Alcotest.test_case "empty histogram" `Quick test_quantile_empty;
        ] );
      ( "trace",
        [
          Alcotest.test_case "ring wraparound" `Quick test_ring_wraparound;
          Alcotest.test_case "disabled no-ops" `Quick
            test_disabled_emitters_are_noops;
          Alcotest.test_case "chrome export well-formed" `Quick
            test_chrome_export_wellformed;
          Alcotest.test_case "jsonl export parses" `Quick
            test_jsonl_export_parses;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "poe phase nesting" `Quick test_poe_phase_nesting;
          Alcotest.test_case "deterministic exports" `Quick
            test_deterministic_exports;
        ] );
    ]
