(* Tests for the storage substrate: KV semantics, undo-log rollback
   (including qcheck inverse properties), Zipf skew, and the YCSB workload
   generator's mix. *)

module Kv = Poe_store.Kv_store
module Undo_log = Poe_store.Undo_log
module Zipf = Poe_store.Zipf
module Ycsb = Poe_store.Ycsb
module Rng = Poe_simnet.Rng

(* ------------------------------------------------------------------ *)
(* Kv_store                                                            *)

let test_kv_basic () =
  let s = Kv.create () in
  Alcotest.(check int) "empty" 0 (Kv.size s);
  let r, _ = Kv.apply s (Kv.Insert ("k", "v1")) in
  Alcotest.(check bool) "insert ok" true (Kv.result_equal r Kv.Ok);
  Alcotest.(check (option string)) "get" (Some "v1") (Kv.get s "k");
  let r, _ = Kv.apply s (Kv.Read "k") in
  Alcotest.(check bool) "read" true (Kv.result_equal r (Kv.Value "v1"));
  let r, _ = Kv.apply s (Kv.Update ("k", "v2")) in
  Alcotest.(check bool) "update ok" true (Kv.result_equal r Kv.Ok);
  Alcotest.(check (option string)) "updated" (Some "v2") (Kv.get s "k");
  let r, _ = Kv.apply s (Kv.Delete "k") in
  Alcotest.(check bool) "delete ok" true (Kv.result_equal r Kv.Ok);
  let r, _ = Kv.apply s (Kv.Read "k") in
  Alcotest.(check bool) "read missing" true (Kv.result_equal r Kv.Missing);
  let r, _ = Kv.apply s (Kv.Delete "k") in
  Alcotest.(check bool) "delete missing" true (Kv.result_equal r Kv.Missing)

let test_kv_undo_single () =
  let s = Kv.create () in
  ignore (Kv.apply s (Kv.Insert ("a", "1")));
  let hint_before = Kv.digest_hint s in
  let _, undo = Kv.apply s (Kv.Update ("a", "2")) in
  Alcotest.(check (option string)) "changed" (Some "2") (Kv.get s "a");
  Kv.revert s undo;
  Alcotest.(check (option string)) "restored" (Some "1") (Kv.get s "a");
  Alcotest.(check int) "fingerprint restored" hint_before (Kv.digest_hint s);
  (* Insert of fresh key reverts to absence. *)
  let _, undo = Kv.apply s (Kv.Insert ("b", "x")) in
  Kv.revert s undo;
  Alcotest.(check (option string)) "b gone" None (Kv.get s "b");
  (* Delete reverts to presence. *)
  let _, undo = Kv.apply s (Kv.Delete "a") in
  Kv.revert s undo;
  Alcotest.(check (option string)) "a back" (Some "1") (Kv.get s "a")

let test_kv_load_ycsb () =
  let s = Kv.create () in
  Kv.load_ycsb s ~records:100 ~payload_bytes:32;
  Alcotest.(check int) "100 rows" 100 (Kv.size s);
  (match Kv.get s "user0" with
  | Some v -> Alcotest.(check int) "payload size" 32 (String.length v)
  | None -> Alcotest.fail "user0 missing");
  Alcotest.(check (option string)) "no user100" None (Kv.get s "user100")

let op_gen =
  let open QCheck.Gen in
  let key = map (fun i -> Printf.sprintf "k%d" i) (int_bound 20) in
  let value = map (fun i -> Printf.sprintf "v%d" i) (int_bound 1000) in
  frequency
    [
      (2, map (fun k -> Kv.Read k) key);
      (4, map2 (fun k v -> Kv.Update (k, v)) key value);
      (2, map2 (fun k v -> Kv.Insert (k, v)) key value);
      (1, map (fun k -> Kv.Delete k) key);
    ]

let op_arbitrary = QCheck.make ~print:(Format.asprintf "%a" Kv.pp_op) op_gen

let kv_qcheck =
  [
    QCheck.Test.make ~name:"reverting a batch in reverse restores the state"
      ~count:300
      QCheck.(list_of_size Gen.(int_bound 30) op_arbitrary)
      (fun ops ->
        let s = Kv.create () in
        Kv.load_ycsb s ~records:10 ~payload_bytes:8;
        (* Also baseline keys k0..k5 so updates/deletes hit existing rows. *)
        for i = 0 to 5 do
          ignore (Kv.apply s (Kv.Insert (Printf.sprintf "k%d" i, "base")))
        done;
        let before = Kv.digest_hint s in
        let before_rows =
          List.init 21 (fun i -> Kv.get s (Printf.sprintf "k%d" i))
        in
        let undos = List.map (fun op -> snd (Kv.apply s op)) ops in
        List.iter (Kv.revert s) (List.rev undos);
        let after_rows =
          List.init 21 (fun i -> Kv.get s (Printf.sprintf "k%d" i))
        in
        before = Kv.digest_hint s && before_rows = after_rows);
    QCheck.Test.make ~name:"encode/decode roundtrip" ~count:500 op_arbitrary
      (fun op -> Kv.decode_op (Kv.encode_op op) = Some op);
  ]

let test_decode_garbage () =
  List.iter
    (fun s -> Alcotest.(check bool) ("garbage: " ^ s) true (Kv.decode_op s = None))
    [ ""; "X"; "R"; "R3:ab"; "U2:ab"; "U2:ab3:xy"; "R2:abEXTRA"; "R-1:" ]

(* Execution digests hash these strings, so their text is frozen. *)
let test_result_strings () =
  List.iter
    (fun (r, expected) ->
      Alcotest.(check string) expected expected (Kv.result_to_string r);
      Alcotest.(check string) ("pp " ^ expected) expected
        (Format.asprintf "%a" Kv.pp_result r))
    [
      (Kv.Value "", "value(0 bytes)");
      (Kv.Value (String.make 1000 'x'), "value(1000 bytes)");
      (Kv.Missing, "missing");
      (Kv.Ok, "ok");
    ]

(* ------------------------------------------------------------------ *)
(* Undo_log                                                            *)

let test_undo_log_rollback () =
  let s = Kv.create () in
  let log = Undo_log.create s in
  ignore (Kv.apply s (Kv.Insert ("x", "0")));
  for seq = 0 to 4 do
    let _, u = Kv.apply s (Kv.Update ("x", string_of_int seq)) in
    Undo_log.record log ~seqno:seq [ u ]
  done;
  Alcotest.(check (option string)) "final" (Some "4") (Kv.get s "x");
  Alcotest.(check (option int)) "last seqno" (Some 4) (Undo_log.last_seqno log);
  let reverted = Undo_log.rollback_to log ~seqno:1 in
  Alcotest.(check int) "3 batches reverted" 3 reverted;
  Alcotest.(check (option string)) "state at seq 1" (Some "1") (Kv.get s "x");
  (* Idempotent: rolling back again reverts nothing. *)
  Alcotest.(check int) "nothing more" 0 (Undo_log.rollback_to log ~seqno:1)

let test_undo_log_multi_op_batches () =
  let s = Kv.create () in
  let log = Undo_log.create s in
  let apply_batch seqno ops =
    let undos = List.map (fun op -> snd (Kv.apply s op)) ops in
    Undo_log.record log ~seqno undos
  in
  apply_batch 0 [ Kv.Insert ("a", "1"); Kv.Insert ("b", "1") ];
  apply_batch 1 [ Kv.Update ("a", "2"); Kv.Delete "b"; Kv.Insert ("c", "1") ];
  ignore (Undo_log.rollback_to log ~seqno:0);
  Alcotest.(check (option string)) "a back to 1" (Some "1") (Kv.get s "a");
  Alcotest.(check (option string)) "b restored" (Some "1") (Kv.get s "b");
  Alcotest.(check (option string)) "c gone" None (Kv.get s "c")

let test_undo_log_truncate () =
  let s = Kv.create () in
  let log = Undo_log.create s in
  for seq = 0 to 9 do
    let _, u = Kv.apply s (Kv.Insert (Printf.sprintf "r%d" seq, "v")) in
    Undo_log.record log ~seqno:seq [ u ]
  done;
  Undo_log.truncate log ~upto:5;
  Alcotest.(check int) "entries pruned" 4 (Undo_log.entries log);
  Alcotest.(check int) "truncation point" 5 (Undo_log.truncation_point log);
  Alcotest.check_raises "cannot roll past checkpoint"
    (Invalid_argument "Undo_log.rollback_to: before checkpoint") (fun () ->
      ignore (Undo_log.rollback_to log ~seqno:3));
  (* Rolling back to the checkpoint itself is fine. *)
  ignore (Undo_log.rollback_to log ~seqno:5);
  Alcotest.(check (option string)) "r9 reverted" None (Kv.get s "r9");
  Alcotest.(check (option string)) "r5 kept" (Some "v") (Kv.get s "r5")

let test_undo_log_ordering () =
  let s = Kv.create () in
  let log = Undo_log.create s in
  Undo_log.record log ~seqno:3 [];
  Alcotest.check_raises "non-increasing"
    (Invalid_argument "Undo_log.record: non-increasing seqno") (fun () ->
      Undo_log.record log ~seqno:3 [])

(* ------------------------------------------------------------------ *)
(* Zipf                                                                *)

let test_zipf_bounds () =
  let z = Zipf.create ~n:1000 ~theta:0.9 in
  let rng = Rng.create 4 in
  for _ = 1 to 10_000 do
    let r = Zipf.next z rng in
    if r < 0 || r >= 1000 then Alcotest.fail "rank out of bounds"
  done

let test_zipf_skew () =
  let z = Zipf.create ~n:1000 ~theta:0.9 in
  let rng = Rng.create 5 in
  let counts = Array.make 1000 0 in
  let samples = 100_000 in
  for _ = 1 to samples do
    let r = Zipf.next z rng in
    counts.(r) <- counts.(r) + 1
  done;
  (* For theta=0.9 over 1000 ranks, zeta ~ 20, so rank 0 should draw ~5%
     and the top-10 ~25% — versus 0.1% and 1% under uniform sampling. *)
  let top1 = float_of_int counts.(0) /. float_of_int samples in
  let top10 =
    Array.sub counts 0 10 |> Array.fold_left ( + ) 0 |> float_of_int
    |> fun x -> x /. float_of_int samples
  in
  Alcotest.(check bool) "rank 0 ~ 5% (>3%)" true (top1 > 0.03);
  Alcotest.(check bool) "top 10 ~ 25% (>15%)" true (top10 > 0.15);
  Alcotest.(check bool) "monotone-ish head" true (counts.(0) > counts.(50))

let test_zipf_theta_zero_uniformish () =
  let z = Zipf.create ~n:100 ~theta:0.0 in
  let rng = Rng.create 6 in
  let counts = Array.make 100 0 in
  for _ = 1 to 50_000 do
    counts.(Zipf.next z rng) <- counts.(Zipf.next z rng) + 1
  done;
  let mx = Array.fold_left max 0 counts and mn = Array.fold_left min max_int counts in
  Alcotest.(check bool) "roughly uniform" true
    (float_of_int mx /. float_of_int (max mn 1) < 3.0)

let test_zipf_validation () =
  Alcotest.check_raises "n=0" (Invalid_argument "Zipf.create: n must be positive")
    (fun () -> ignore (Zipf.create ~n:0 ~theta:0.5));
  Alcotest.check_raises "theta=1" (Invalid_argument "Zipf.create: theta in [0,1)")
    (fun () -> ignore (Zipf.create ~n:10 ~theta:1.0))

(* ------------------------------------------------------------------ *)
(* Ycsb                                                                *)

let test_ycsb_mix () =
  let w = Ycsb.create { Ycsb.small_profile with write_proportion = 0.9 } in
  let rng = Rng.create 8 in
  let writes = ref 0 and reads = ref 0 in
  for _ = 1 to 10_000 do
    match Ycsb.generate w rng with
    | Kv.Update _ -> incr writes
    | Kv.Read _ -> incr reads
    | Kv.Insert _ | Kv.Delete _ -> Alcotest.fail "unexpected op kind"
  done;
  let frac = float_of_int !writes /. 10_000.0 in
  Alcotest.(check bool) "~90% writes (paper config)" true
    (frac > 0.88 && frac < 0.92)

let test_ycsb_keys_in_table () =
  let w = Ycsb.create Ycsb.small_profile in
  let store = Kv.create () in
  Ycsb.populate w store;
  Alcotest.(check int) "populated" Ycsb.small_profile.records (Kv.size store);
  let rng = Rng.create 9 in
  for _ = 1 to 1000 do
    let op = Ycsb.generate w rng in
    match Kv.get store (Kv.op_key op) with
    | Some _ -> ()
    | None -> Alcotest.fail ("key outside table: " ^ Kv.op_key op)
  done

let test_ycsb_write_values_unique () =
  let w = Ycsb.create Ycsb.small_profile in
  let rng = Rng.create 10 in
  let values = Hashtbl.create 64 in
  let dup = ref false in
  for _ = 1 to 1000 do
    match Ycsb.generate w rng with
    | Kv.Update (_, v) ->
        if Hashtbl.mem values v then dup := true;
        Hashtbl.replace values v ()
    | _ -> ()
  done;
  Alcotest.(check bool) "write payloads are distinct" false !dup

let () =
  Alcotest.run "store"
    [
      ( "kv_store",
        [
          Alcotest.test_case "basic ops" `Quick test_kv_basic;
          Alcotest.test_case "single-op undo" `Quick test_kv_undo_single;
          Alcotest.test_case "ycsb load" `Quick test_kv_load_ycsb;
          Alcotest.test_case "decode garbage" `Quick test_decode_garbage;
          Alcotest.test_case "result strings" `Quick test_result_strings;
        ]
        @ List.map QCheck_alcotest.to_alcotest kv_qcheck );
      ( "undo_log",
        [
          Alcotest.test_case "rollback" `Quick test_undo_log_rollback;
          Alcotest.test_case "multi-op batches" `Quick
            test_undo_log_multi_op_batches;
          Alcotest.test_case "truncate" `Quick test_undo_log_truncate;
          Alcotest.test_case "ordering enforced" `Quick test_undo_log_ordering;
        ] );
      ( "zipf",
        [
          Alcotest.test_case "bounds" `Quick test_zipf_bounds;
          Alcotest.test_case "skew 0.9" `Slow test_zipf_skew;
          Alcotest.test_case "theta 0 uniform-ish" `Slow
            test_zipf_theta_zero_uniformish;
          Alcotest.test_case "validation" `Quick test_zipf_validation;
        ] );
      ( "ycsb",
        [
          Alcotest.test_case "write mix" `Quick test_ycsb_mix;
          Alcotest.test_case "keys stay in table" `Quick test_ycsb_keys_in_table;
          Alcotest.test_case "distinct write payloads" `Quick
            test_ycsb_write_values_unique;
        ] );
    ]
