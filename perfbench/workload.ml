(* The benchmark's workloads. Every one runs PoE with closed-loop clients on
   16 client machines, the default intra-datacenter latency and 10 Gbit
   NICs; the seed given on the command line seeds the whole simulation. *)

module Config = Poe_runtime.Config

type t = {
  name : string;
  why : string;
  config : seed:int -> Config.t;
  warmup : float;  (** simulated seconds discarded before the window *)
  window_end : float;  (** end of the measurement window *)
  until : float;
      (** end of the simulation; a little past [window_end] so every
          completion inside the window is observed (see [Probe.Tracker]) *)
  crash_primary_at : float option;  (** fail-stop replica 0 at this time *)
  phase_slice : float;
      (** simulated seconds, from [warmup] on, during which the traced pass
          records the slot-phase trace *)
}

let steady_n32 =
  {
    name = "poe-n32-steady";
    why =
      "fig9 shape: engine, network, lanes and hub do all the work; store, \
       ledger and crypto do none";
    config =
      (fun ~seed ->
        Config.make ~n:32 ~batch_size:100 ~payload:Config.Standard
          ~replica_scheme:Config.Auth_threshold ~out_of_order:true
          ~n_hubs:16 ~clients_per_hub:250 ~request_timeout:0.5 ~seed ());
    warmup = 0.1;
    window_end = 0.8;
    until = 0.82;
    crash_primary_at = None;
    phase_slice = 0.1;
  }

(* The longest window: this workload's p99.9 comes from bursts of slow
   requests, and with a 0.7 s window it moved by about 18% from seed to
   seed. *)
let ycsb_n4 =
  {
    name = "poe-n4-ycsb";
    why =
      "real KV store, undo log, hash-chained ledger and SHA-256: the \
       execution and state layers do the largest share";
    config =
      (fun ~seed ->
        Config.make ~n:4 ~batch_size:100 ~payload:Config.Standard
          ~replica_scheme:Config.Auth_mac ~out_of_order:true ~n_hubs:16
          ~clients_per_hub:250 ~request_timeout:0.5 ~materialize:true ~seed ());
    warmup = 0.1;
    window_end = 2.1;
    until = 2.12;
    crash_primary_at = None;
    phase_slice = 0.05;
  }

let failover_n16 =
  {
    name = "poe-n16-failover";
    why =
      "primary crash: hub timeouts, retransmits, suspicion, view change and \
       exec abandon on top of the steady-state path";
    config =
      (fun ~seed ->
        Config.make ~n:16 ~batch_size:100 ~payload:Config.Standard
          ~replica_scheme:Config.Auth_mac ~out_of_order:true ~n_hubs:16
          ~clients_per_hub:100 ~request_timeout:0.8 ~view_timeout:0.4 ~seed ());
    warmup = 0.2;
    window_end = 2.45;
    until = 2.5;
    crash_primary_at = Some 0.8;
    phase_slice = 0.1;
  }

let all = [ steady_n32; ycsb_n4; failover_n16 ]

let find name = List.find_opt (fun w -> String.equal w.name name) all
