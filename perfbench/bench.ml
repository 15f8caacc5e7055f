(* perfbench: the repository's performance benchmark.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   One workload per process, one domain, no pool; a forked child times
   the set-up builds while the main process waits. With --trace 0 the
   simulation is built and run once (one pass) and the end-to-end metrics
   are printed; with --trace 1 an untraced, a traced and a second untraced
   pass run and the per-layer metrics are printed. A pass is fixed
   simulated work; S is the host time a --trace 0 run (the pass and the
   set-up bursts) is expected to stay within.
   Every pass is checked for correctness; a failed check prints its name,
   no numbers, and exits 1. The last stdout line is one JSON object:
   {"correct", "attempted", "failed", "metrics"}. *)

module R = Poe_runtime
module Engine = Poe_simnet.Engine
module Network = Poe_simnet.Network
module Config = R.Config
module Stats = R.Stats
module Server = R.Server
module Ctx = R.Replica_ctx
module Hub = R.Hub_core
module Prof = Poe_prof.Prof
module Trace = Poe_obs.Trace
module An = Poe_analysis
module P = Probe.Wrap (Poe_core.Poe_protocol)
module C = Poe_harness.Cluster.Make (P)

exception Check_failed of string

let check name ok = if not ok then raise (Check_failed name)

(* Lanes per resource as [Server.create] defaults them (the harness builds
   every server with the defaults). *)
let lanes = function
  | Server.Io -> 8
  | Server.Batcher -> 2
  | Server.Worker -> 1
  | Server.Execute -> 1

let resources = [ Server.Io; Server.Batcher; Server.Worker; Server.Execute ]

type phases = {
  names : (string * float * float) list;  (** phase, p50 s, share *)
  slot_p50 : float;
}

type pass = {
  run_s : float;
  cpu_s : float;
  completed_total : int;
  sim_tput : float;
  lat_count : int;
  lat_p50 : float;
  lat_p999 : float;
  gap_s : float;
  stale : int;
  top_heap_mb : float;  (** process high-water mark when the pass ended *)
  counters : (string * int) list;  (** Prof counters over [run] *)
  events : int;
  msgs : int;
  bytes : int;
  dropped : int;
  alloc_bytes : float;
  promoted_bytes : float;
  minor_gcs : int;
  major_gcs : int;
  view_changes : int;
  deduped : int;
  store_rows : int;
  ledger_blocks : int;
  util : (Server.resource * float) list;  (** replica 0 *)
  (* traced pass only *)
  proto : Probe.Spans.acc;  (** protocol handler spans, outside the slice *)
  hub : Probe.Spans.acc;  (** hub handler spans, outside the slice *)
  backlog_ms : float;
  phases : phases option;
  slice_s : float;
}

let counter counters name =
  match List.assoc_opt name counters with Some v -> v | None -> 0

let params_of (w : Workload.t) ~seed =
  let config = w.Workload.config ~seed in
  {
    (Poe_harness.Cluster.default_params ~config) with
    warmup = w.Workload.warmup;
    measure = w.Workload.window_end -. w.Workload.warmup;
  }

let timed_build params =
  let t0 = Probe.now_ns () in
  let c = C.build params in
  let t1 = Probe.now_ns () in
  (c, t0, t1)

(* [setup_s] is the host time of one [Cluster.build] (key material,
   replicas, hubs and, when materialized, the YCSB store load), timed in a
   forked child, the builder: several hundred builds and compactions change
   how the GC paces the later pass, so they must not run in the process
   that measures it. A build takes about a millisecond, and the first
   hundred or so in a process run several times slower while the heap and
   the allocator settle, so the builder starts with 100 untimed builds.
   A build mostly writes fresh memory, and the host's caches and memory
   are shared with other tenants: while they are busy a build takes up to
   twice as long, in spells from a tenth of a second to most of a run,
   while a spin loop timed alongside does not slow down. So the timed
   builds are made in bursts spread over the whole run: one before the
   pass, one between each two slices of it and one after it. A burst's
   sample is its fastest build (as Python's timeit advises, the slower
   ones measure the other work on the host), and [setup_s] is the median
   of the samples. Only one of the two processes runs at a time; each
   build starts on a compacted heap. *)
module Builder = struct
  type t = { pid : int; cmd : out_channel; reply : in_channel; mutable reaped : bool }

  (* host seconds of one burst, and the fewest builds in one *)
  let burst_s = 0.25
  let min_builds = 5

  let serve params cmd reply =
    let build () =
      Gc.compact ();
      let _, b0, b1 = timed_build params in
      Probe.secs (b1 - b0)
    in
    let answer s =
      output_string reply s;
      output_char reply '\n';
      flush reply
    in
    for _ = 1 to 100 do
      ignore (build ())
    done;
    answer "ready";
    let samples = ref [] in
    let rec loop () =
      match input_line cmd with
      | "samples" ->
          answer (String.concat " " (List.rev_map (Printf.sprintf "%h") !samples))
      | _ ->
          let stop = Probe.now_ns () + int_of_float (burst_s *. 1e9) in
          let rec burst n fastest =
            if n < min_builds || Probe.now_ns () < stop then
              burst (n + 1) (Float.min fastest (build ()))
            else fastest
          in
          samples := burst 0 infinity :: !samples;
          answer "done";
          loop ()
    in
    loop ()

  let start (w : Workload.t) ~seed =
    let cmd_rd, cmd_wr = Unix.pipe ~cloexec:true ()
    and reply_rd, reply_wr = Unix.pipe ~cloexec:true () in
    match Unix.fork () with
    | 0 ->
        Unix.close cmd_wr;
        Unix.close reply_rd;
        let code =
          try
            serve (params_of w ~seed) (Unix.in_channel_of_descr cmd_rd)
              (Unix.out_channel_of_descr reply_wr);
            0
          with _ -> 1
        in
        Unix._exit code
    | pid ->
        Unix.close cmd_rd;
        Unix.close reply_wr;
        {
          pid;
          cmd = Unix.out_channel_of_descr cmd_wr;
          reply = Unix.in_channel_of_descr reply_rd;
          reaped = false;
        }

  (* Closing the command pipe ends the builder if it is still waiting. A
     builder already reaped reads as a clean exit. *)
  let stop t =
    if not t.reaped then begin
      t.reaped <- true;
      close_out_noerr t.cmd;
      close_in_noerr t.reply;
      snd (Unix.waitpid [] t.pid)
    end
    else Unix.WEXITED 0

  let ask t line =
    try
      output_string t.cmd line;
      output_char t.cmd '\n';
      flush t.cmd;
      input_line t.reply
    with End_of_file | Sys_error _ ->
      ignore (stop t);
      raise (Check_failed "setup_builds")

  let ready t =
    check "setup_builds"
      (match input_line t.reply with
      | line -> String.equal line "ready"
      | exception End_of_file -> false)

  let burst t = check "setup_builds" (String.equal (ask t "burst") "done")

  (* the fastest build of every burst, in the order they ran; this ends
     the builder *)
  let samples t =
    let s = ask t "samples" in
    check "setup_builds" (stop t = Unix.WEXITED 0);
    List.map float_of_string (String.split_on_char ' ' s)
end

let gc_words () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words, s.Gc.promoted_words, s.Gc.major_words, s.Gc.minor_collections,
   s.Gc.major_collections)

let phases_of events =
  An.Attribution.of_result (An.Slot_life.reconstruct events)
  |> List.find_opt (fun b -> String.equal b.An.Attribution.protocol P.name)
  |> Option.map (fun b ->
        {
          names =
            List.map
              (fun (p : An.Attribution.phase_stats) ->
                (p.An.Attribution.phase, p.An.Attribution.p50, p.An.Attribution.share))
              b.An.Attribution.phases;
          slot_p50 = b.An.Attribution.slot_p50;
        })

let run_slices = 20

(* One build-and-run of the workload. The traced pass additionally times
   the protocol and hub handlers, samples the primary's io backlog and
   records the slot-phase trace over a short slice of the window. *)
let run_pass ?(between = ignore) ~traced (w : Workload.t) ~seed =
  let params = params_of w ~seed in
  let cfg = params.Poe_harness.Cluster.config in
  let n = cfg.Config.n in
  Gc.compact ();
  Prof.reset ();
  Probe.Spans.reset ();
  let tracker =
    Probe.Tracker.create ~n_hubs:cfg.Config.n_hubs
      ~clients_per_hub:cfg.Config.clients_per_hub ~warmup:w.Workload.warmup
      ~window_end:w.Workload.window_end
  in
  Probe.tracker := Some tracker;
  let c, b0, b1 = timed_build params in
  Option.iter (fun at -> C.crash_replica c 0 ~at) w.Workload.crash_primary_at;
  let backlog = Calc.Hist.create () in
  let sink = if traced then Some (Trace.create ~capacity:(1 lsl 20) ()) else None in
  let slice_t0 = ref 0 and slice_ns = ref 0 in
  if traced then begin
    Probe.Spans.build := (b0, b1);
    Array.iteri
      (fun h hub ->
        Network.set_handler c.C.net (n + h) (fun ~src ~bytes:_ msg ->
            let t0 = Probe.now_ns () in
            Hub.on_network_message hub ~src msg;
            Probe.Spans.record Probe.Spans.Hub t0 (Probe.now_ns ())))
      c.C.hubs;
    let srv = Ctx.server (C.replica_ctx c 0) in
    C.every c ~interval:0.01 (fun () ->
        if Engine.now c.C.engine >= w.Workload.warmup then
          Calc.Hist.add backlog (Server.backlog srv Server.Io));
    ignore
      (Engine.schedule c.C.engine ~delay:w.Workload.warmup (fun () ->
           Option.iter Trace.set sink;
           Probe.Spans.in_slice := true;
           slice_t0 := Probe.now_ns ()));
    ignore
      (Engine.schedule c.C.engine
         ~delay:(w.Workload.warmup +. w.Workload.phase_slice)
         (fun () ->
           Trace.clear ();
           Probe.Spans.in_slice := false;
           slice_ns := Probe.now_ns () - !slice_t0))
  end;
  let prof0 = Prof.counters () in
  let mw0, pw0, jw0, mc0, jc0 = gc_words () in
  Probe.Spans.on := traced;
  (* The untraced pass runs in [run_slices] equal spans of simulated time
     with [between] called before each and after the last; only the spans
     are timed. Stopping and resuming the engine does not change what it
     simulates. *)
  let slices = if traced then 1 else run_slices in
  let r0 = Probe.now_ns () in
  let run_ns = ref 0 and cpu_s = ref 0.0 and r1 = ref r0 in
  for i = 1 to slices do
    between ();
    let until =
      if i = slices then w.Workload.until
      else w.Workload.until *. float_of_int i /. float_of_int slices
    in
    let cpu0 = Sys.time () in
    let s0 = Probe.now_ns () in
    C.run c ~until;
    r1 := Probe.now_ns ();
    cpu_s := !cpu_s +. (Sys.time () -. cpu0);
    run_ns := !run_ns + (!r1 - s0)
  done;
  between ();
  let r1 = !r1 in
  Probe.Spans.on := false;
  Probe.tracker := None;
  let mw1, pw1, jw1, mc1, jc1 = gc_words () in
  let top_heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  if traced then Probe.Spans.run := (r0, r1);
  let counters =
    Array.to_list
      (Array.mapi
         (fun i (name, v) ->
           match snd Prof.counter_defs.(i) with
           | Prof.Sum -> (name, v - snd prof0.(i))
           | Prof.Max -> (name, v))
         (Prof.counters ()))
  in
  let ctxs = C.replica_ctxs c in
  let live = List.filter Ctx.alive (Array.to_list ctxs) in
  (* Correctness, on every pass. *)
  check "committed_prefix_agrees" (C.committed_prefix_agrees c);
  check "zero_duplicate_executions"
    (Array.for_all (fun x -> Ctx.duplicate_executions x = 0) ctxs);
  if cfg.Config.materialize then
    check "chain_verify"
      (List.for_all
         (fun x ->
           match Ctx.chain x with
           | Some ch -> Result.is_ok (Poe_ledger.Chain.verify ch) && Poe_ledger.Chain.length ch > 1
           | None -> false)
         live);
  let sim_tput = Stats.throughput c.C.stats in
  let measure = w.Workload.window_end -. w.Workload.warmup in
  check "completion_in_window" (sim_tput > 0.0);
  let view_changes =
    Array.fold_left (fun acc r -> max acc (P.current_view r)) 0 c.C.replicas
  in
  let series = Probe.Tracker.series tracker ~upto:w.Workload.until in
  (match w.Workload.crash_primary_at with
  | Some at ->
      check "exactly_one_view_change"
        (List.for_all
           (fun x -> x = 1)
           (List.filter_map
              (fun r -> if Ctx.alive (P.ctx r) then Some (P.current_view r) else None)
              (Array.to_list c.C.replicas)));
      check "completion_after_crash"
        (List.exists
           (fun (start, rate) -> start >= at && rate > 0.0)
           (Stats.bucket_series c.C.stats ~bucket:0.1 ~upto:w.Workload.until))
  | None -> check "no_view_change" (view_changes = 0));
  (* The rebuilt latencies must account for exactly the completions Stats
     counted in the window, with the same mean, and the rebuilt 100 ms
     completion counts must match Stats' own series. *)
  let window_count = Float.round (sim_tput *. measure) in
  check "latency_rebuild_count"
    (float_of_int (Calc.Hist.count tracker.Probe.Tracker.lat) = window_count);
  check "latency_rebuild_mean"
    (Float.abs (Calc.Hist.mean tracker.Probe.Tracker.lat -. Stats.avg_latency c.C.stats)
    <= 1e-9);
  List.iteri
    (fun i (start, rate) ->
      if start +. 0.1 <= w.Workload.window_end +. 1e-9 then begin
        let mine =
          if i < Array.length tracker.Probe.Tracker.coarse then
            tracker.Probe.Tracker.coarse.(i)
          else 0
        in
        check "completion_series_matches_stats"
          (Float.round (rate *. 0.1) = float_of_int mine)
      end)
    (* [upto] past the window: the series' last bucket is closed on the
       right, so it is never one of the buckets compared *)
    (Stats.bucket_series c.C.stats ~bucket:0.1 ~upto:w.Workload.until);
  let gap_s =
    match w.Workload.crash_primary_at with
    | Some at ->
        Calc.longest_empty_run ~bucket:Probe.Tracker.bucket ~after:at
          (List.filter (fun (s, _) -> s < w.Workload.window_end) series)
    | None -> 0.0
  in
  let now = Engine.now c.C.engine in
  let timeout = cfg.Config.request_timeout in
  let stale =
    if Array.exists (fun h -> Hub.oldest_outstanding_age h ~now > timeout) c.C.hubs
    then Probe.Tracker.stale tracker ~now ~timeout
    else 0
  in
  let srv0 = Ctx.server ctxs.(0) in
  let word = float_of_int (Sys.word_size / 8) in
  let lat = tracker.Probe.Tracker.lat in
  {
    run_s = Probe.secs !run_ns;
    cpu_s = !cpu_s;
    completed_total = Stats.completed_total c.C.stats;
    sim_tput;
    lat_count = Calc.Hist.count lat;
    lat_p50 = Calc.Hist.quantile lat 0.5;
    lat_p999 = Calc.Hist.quantile lat 0.999;
    gap_s;
    stale;
    top_heap_mb = float_of_int (top_heap_words * (Sys.word_size / 8)) /. 1e6;
    counters;
    events = Engine.processed_events c.C.engine;
    msgs = Network.sent_messages c.C.net;
    bytes = Network.sent_bytes c.C.net;
    dropped = Network.dropped_messages c.C.net;
    alloc_bytes = (mw1 -. mw0 +. (jw1 -. jw0) -. (pw1 -. pw0)) *. word;
    promoted_bytes = (pw1 -. pw0) *. word;
    minor_gcs = mc1 - mc0;
    major_gcs = jc1 - jc0;
    view_changes;
    deduped = Array.fold_left (fun acc x -> acc + Ctx.deduped_requests x) 0 ctxs;
    store_rows =
      (match Ctx.store ctxs.(0) with
      | Some s -> Poe_store.Kv_store.size s
      | None -> 0);
    ledger_blocks =
      (match Ctx.chain ctxs.(0) with
      | Some ch -> Poe_ledger.Chain.length ch
      | None -> 0);
    util =
      List.map
        (fun r ->
          ( r,
            Server.busy_seconds srv0 r
            /. (float_of_int (lanes r) *. w.Workload.until) ))
        resources;
    proto = { Probe.Spans.proto with Probe.Spans.ns = Probe.Spans.proto.Probe.Spans.ns };
    hub = { Probe.Spans.hub with Probe.Spans.ns = Probe.Spans.hub.Probe.Spans.ns };
    backlog_ms = Calc.Hist.mean backlog *. 1e3;
    phases = Option.bind sink (fun s -> phases_of (Trace.events s));
    slice_s = Probe.secs !slice_ns;
  }

(* ------------------------------------------------------------------ *)
(* Output                                                              *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(* Operations are counted over every pass the run made. *)
let print_result passes metrics =
  let sum f = List.fold_left (fun acc p -> acc + f p) 0 passes in
  let attempted = sum (fun p -> counter p.counters "hub.requests_submitted") in
  let failed = sum (fun p -> p.stale) in
  check "metrics_finite" (List.for_all (fun x -> Float.is_finite x.value) metrics);
  List.iter
    (fun x -> Printf.printf "  %-34s %16.6f %s\n" x.name x.value x.unit_)
    metrics;
  let body =
    String.concat ", "
      (List.map
         (fun x ->
           Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" x.name x.value
             x.unit_)
         metrics)
  in
  Printf.printf
    "{\"correct\": true, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    attempted failed body

let same_sim a b =
  a.completed_total = b.completed_total
  && a.sim_tput = b.sim_tput
  && a.lat_p50 = b.lat_p50 && a.lat_p999 = b.lat_p999

let end_to_end ~setup p =
  [
    m "txn_per_wall_s" "txn/s" (float_of_int p.completed_total /. p.run_s);
    m "setup_s" "s" setup;
    m "peak_heap_mb" "MB" p.top_heap_mb;
    m "sim_tput_txn_s" "txn/s" p.sim_tput;
    m "sim_lat_p50_ms" "ms" (p.lat_p50 *. 1e3);
    m "sim_lat_p999_ms" "ms" (p.lat_p999 *. 1e3);
  ]

let per_layer ~setup ~overhead (u : pass) (t : pass) =
  let txns = u.completed_total in
  let c name = counter u.counters name in
  let per_txn v = Calc.per_txn v ~txns in
  let sp = t.proto and sh = t.hub in
  let run_s = t.run_s -. t.slice_s in
  let proto_s = Probe.secs sp.Probe.Spans.ns
  and hub_s = Probe.secs sh.Probe.Spans.ns in
  (* zeros when the slice saw no complete slot *)
  let ph = Option.value t.phases ~default:{ names = []; slot_p50 = 0.0 } in
  let phase_metrics =
    List.concat_map
      (fun name ->
        let p50, share =
          match List.find_opt (fun (p, _, _) -> p = name) ph.names with
          | Some (_, p50, share) -> (p50, share)
          | None -> (0.0, 0.0)
        in
        [
          m (Printf.sprintf "phase.%s.p50_ms" name) "ms" (p50 *. 1e3);
          m (Printf.sprintf "phase.%s.share" name) "ratio" share;
        ])
      [ "propose"; "support"; "certify" ]
    @ [ m "phase.slot_p50_ms" "ms" (ph.slot_p50 *. 1e3) ]
  in
  let util r = List.assoc r u.util in
  let lookups = c "keychain.prepared_hits" + c "keychain.prepared_misses" in
  [
    m "harness.build_s" "s" setup;
    m "engine.run_s" "s" run_s;
    m "engine.rest_self_s" "s" (Calc.self_time ~total:run_s ~children:[ proto_s; hub_s ]);
    m "engine.events_per_txn" "count" (per_txn u.events);
    m "engine.events_per_wall_s" "1/s" (Calc.ratio (float_of_int u.events) u.run_s);
    m "engine.queue_high_water" "count" (float_of_int (c "sim.queue_high_water"));
    m "network.msgs_per_txn" "count" (per_txn u.msgs);
    m "network.bytes_per_txn" "B" (per_txn u.bytes);
    m "network.dropped" "count" (float_of_int u.dropped);
    m "protocol.on_message_self_s" "s" proto_s;
    m "protocol.on_message_calls" "count" (float_of_int sp.Probe.Spans.calls);
    m "protocol.ns_per_call" "ns"
      (Calc.ratio (float_of_int sp.Probe.Spans.ns) (float_of_int sp.Probe.Spans.calls));
  ]
  @ phase_metrics
  @ [
      m "hub_core.deliver_self_s" "s" hub_s;
      m "hub_core.ns_per_reply" "ns"
        (Calc.ratio (float_of_int sh.Probe.Spans.ns) (float_of_int sh.Probe.Spans.calls));
      m "hub_core.submitted" "count" (float_of_int (c "hub.requests_submitted"));
      m "hub_core.retransmits" "count" (float_of_int (c "hub.retransmits"));
      m "hub_core.completed" "count" (float_of_int (c "hub.replies_completed"));
      m "hub_core.failed_frac" "ratio"
        (Calc.failed_frac
           ~failed:(c "hub.retransmits" + u.stale)
           ~attempted:(c "hub.requests_submitted"));
      m "server.primary_io_util" "ratio" (util Server.Io);
      m "server.primary_batcher_util" "ratio" (util Server.Batcher);
      m "server.primary_worker_util" "ratio" (util Server.Worker);
      m "server.primary_execute_util" "ratio" (util Server.Execute);
      m "server.primary_io_backlog_ms" "ms" t.backlog_ms;
      m "pipeline.reqs_per_batch" "count"
        (Calc.ratio
           (float_of_int (c "msg.batched_requests"))
           (float_of_int (c "msg.batches_built")));
      m "exec_engine.rollbacks" "count" (float_of_int (c "exec.rollbacks"));
      m "exec_engine.slots_abandoned" "count" (float_of_int (c "exec.slots_abandoned"));
      m "exec_engine.deduped_requests" "count" (float_of_int u.deduped);
      m "recovery.view_changes" "count" (float_of_int u.view_changes);
      m "recovery.failover_gap_ms" "ms" (u.gap_s *. 1e3);
      m "store.rows" "count" (float_of_int u.store_rows);
      m "ledger.blocks" "count" (float_of_int u.ledger_blocks);
      m "crypto.sha256_blocks_per_txn" "count" (per_txn (c "sha256.blocks_compressed"));
      m "crypto.macs_per_txn" "count" (per_txn (c "hmac.macs_computed"));
      m "crypto.keychain_hit_ratio" "ratio"
        (Calc.ratio (float_of_int (c "keychain.prepared_hits")) (float_of_int lookups));
      m "gc.alloc_bytes_per_txn" "B" (Calc.ratio u.alloc_bytes (float_of_int txns));
      m "gc.promoted_bytes_per_txn" "B" (Calc.ratio u.promoted_bytes (float_of_int txns));
      m "gc.minor_collections" "count" (float_of_int u.minor_gcs);
      m "gc.major_collections" "count" (float_of_int u.major_gcs);
      m "host.cpu_over_wall" "ratio" (Calc.ratio u.cpu_s u.run_s);
      m "trace.overhead_s" "s" overhead;
      m "trace.phase_slice_s" "s" t.slice_s;
    ]

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)

(* Prints the builder's samples and returns their median, [setup_s]. *)
let setup_of samples =
  Printf.printf "setup: fastest build of each burst, ms:%s\n"
    (String.concat "" (List.map (fun x -> Printf.sprintf " %.3f" (x *. 1e3)) samples));
  Calc.median samples

let usage = "bench.exe --workload NAME --seed N --seconds S --trace 0|1"

(* where the traced pass writes its spans, relative to the working directory *)
let spans_dir = ".perfbench_out"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N simulation seed");
      ("--seconds", Arg.Set_int seconds, "S host seconds a --trace 0 run should stay within");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let w =
    match Workload.find !workload with
    | Some w -> w
    | None ->
        Printf.eprintf "unknown workload %S; known: %s\n" !workload
          (String.concat ", " (List.map (fun w -> w.Workload.name) Workload.all));
        exit 2
  in
  if !trace <> 0 && !trace <> 1 then (prerr_endline usage; exit 2);
  Printf.printf "workload %s (seed %d): %s\n%!" w.Workload.name !seed w.Workload.why;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let builder = Builder.start w ~seed:!seed in
  try
    Builder.ready builder;
    if !trace = 0 then begin
      (* Exactly one pass, so every run measures a process with a fresh
         heap whatever the program's speed. *)
      let t0 = Probe.now_ns () in
      let p =
        run_pass ~between:(fun () -> Builder.burst builder) ~traced:false w
          ~seed:!seed
      in
      let setup = setup_of (Builder.samples builder) in
      let took = Probe.secs (Probe.now_ns () - t0) in
      Printf.printf "pass %.1f s, pass and set-up bursts %.1f s\n" p.run_s took;
      Printf.printf "latency samples %d (p99.9 has %d beyond it)\n" p.lat_count
        (Calc.tail_samples ~count:p.lat_count 0.999);
      if took > float_of_int !seconds then
        Printf.printf "note: the run took %.1f s, more than --seconds %d\n" took
          !seconds;
      print_result [ p ] (end_to_end ~setup p)
    end
    else begin
      for _ = 0 to run_slices do
        Builder.burst builder
      done;
      let setup = setup_of (Builder.samples builder) in
      (* The first pass grows the heap and later passes reuse it, which
         makes them faster; tracing overhead is therefore taken against a
         second untraced pass that runs after the traced one. *)
      let u = run_pass ~traced:false w ~seed:!seed in
      let origin = Probe.now_ns () in
      let t = run_pass ~traced:true w ~seed:!seed in
      check "traced_pass_agrees"
        (u.completed_total = t.completed_total && u.sim_tput = t.sim_tput);
      (try
         if not (Sys.file_exists spans_dir) then Sys.mkdir spans_dir 0o755;
         let path =
           Filename.concat spans_dir
             (Printf.sprintf "%s-seed%d.spans.tsv" w.Workload.name !seed)
         in
         Probe.Spans.write_file path ~origin;
         Printf.printf "spans: %s (%d kept)\n" path !Probe.Spans.kept
       with Sys_error e -> Printf.printf "spans not written: %s\n" e);
      let u2 = run_pass ~traced:false w ~seed:!seed in
      check "passes_repeat_exactly" (same_sim u u2);
      let metrics = per_layer ~setup ~overhead:(t.run_s -. u2.run_s) u t in
      print_result [ u; t; u2 ] metrics
    end
  with
  | Check_failed name ->
      ignore (Builder.stop builder);
      Printf.printf "CHECK FAILED: %s\n" name;
      exit 1
  | e ->
      ignore (Builder.stop builder);
      raise e
