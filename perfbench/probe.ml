(* Everything the benchmark observes from outside the program: client
   latencies rebuilt from the requests replicas receive, and host-time
   spans around the protocol handler and the client-hub handler. *)

module R = Poe_runtime
module Message = R.Message

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let secs ns = float_of_int ns *. 1e-9

(* Client latencies without reaching into the hub. A logical client keeps
   one request outstanding and submits its next one in the very event that
   completes the previous one ([Hub_core.complete]), so request [rid + 1]
   carries the completion time of request [rid] in its [submitted] field.
   Every request reaches some replica (fresh, bundled, or as a timeout
   forward), and the harness prices every delivery with [receive_cost]
   the moment it arrives, before the input lanes queue it; watching those
   calls recovers every completion with its exact latency. Completions
   whose successor has not reached a replica by the end of the run are the
   only ones missed, which is why a workload simulates a little past its
   window. *)
module Tracker = struct
  let bucket = 0.01

  type t = {
    clients_per_hub : int;
    last_rid : int array;
    last_sub : float array;
    warmup : float;
    window_end : float;
    lat : Calc.Hist.t;  (** latencies of completions inside the window *)
    mutable buckets : int array;  (** completions per 10 ms, all time *)
    mutable coarse : int array;
        (** completions per 100 ms, bucketed exactly as [Stats] does *)
  }

  let create ~n_hubs ~clients_per_hub ~warmup ~window_end =
    {
      clients_per_hub;
      last_rid = Array.make (n_hubs * clients_per_hub) (-1);
      last_sub = Array.make (n_hubs * clients_per_hub) 0.0;
      warmup;
      window_end;
      lat = Calc.Hist.create ();
      buckets = Array.make 512 0;
      coarse = Array.make 64 0;
    }

  let bump a i =
    let a =
      if i < Array.length a then a
      else begin
        let bigger = Array.make (2 * (i + 1)) 0 in
        Array.blit a 0 bigger 0 (Array.length a);
        bigger
      end
    in
    a.(i) <- a.(i) + 1;
    a

  let record_completion t ~at ~latency =
    t.buckets <- bump t.buckets (int_of_float (at /. bucket));
    t.coarse <- bump t.coarse (int_of_float (at *. 10.0));
    if at >= t.warmup && at < t.window_end then Calc.Hist.add t.lat latency

  let observe t (r : Message.request) =
    let i = (r.Message.hub * t.clients_per_hub) + r.Message.client in
    let last = t.last_rid.(i) in
    if r.Message.rid > last then begin
      (* a gap in rids loses a completion; the count check catches it *)
      if r.Message.rid = last + 1 && last >= 0 then
        record_completion t ~at:r.Message.submitted
          ~latency:(r.Message.submitted -. t.last_sub.(i));
      t.last_rid.(i) <- r.Message.rid;
      t.last_sub.(i) <- r.Message.submitted
    end

  let observe_msg t = function
    | Message.Client_request r | Message.Client_forward r -> observe t r
    | Message.Client_request_bundle rs -> List.iter (observe t) rs
    | _ -> ()

  (* [(bucket_start, completions)] from time 0 to [upto]. *)
  let series t ~upto =
    List.init
      (int_of_float (Float.ceil (upto /. bucket)))
      (fun i ->
        ( float_of_int i *. bucket,
          if i < Array.length t.buckets then float_of_int t.buckets.(i)
          else 0.0 ))

  (* Clients whose newest request is older than [timeout] at [now]. *)
  let stale t ~now ~timeout =
    let n = ref 0 in
    Array.iteri
      (fun i rid -> if rid >= 0 && now -. t.last_sub.(i) > timeout then incr n)
      t.last_rid;
    !n
end

let tracker : Tracker.t option ref = ref None

(* Host-time spans, recorded only in the traced pass: the cluster build,
   the engine run, and every protocol and hub handler call inside the run.
   Handler totals are exact; the first [capacity] handler spans are also
   kept for the span file. *)
module Spans = struct
  type kind = Protocol | Hub

  let kind_name = function
    | Protocol -> "protocol.on_message"
    | Hub -> "hub_core.deliver"

  let build = ref (0, 0)
  let run = ref (0, 0)

  let on = ref false

  (* While the slot-phase trace is being written (a short slice of the
     traced pass) handler time is left out of the totals, so the layer
     split is not inflated by the program's own trace emission. *)
  let in_slice = ref false

  type acc = { mutable ns : int; mutable calls : int }

  let proto = { ns = 0; calls = 0 }
  let hub = { ns = 0; calls = 0 }
  let capacity = 1 lsl 18
  let kinds = Array.make capacity Protocol
  let starts = Array.make capacity 0
  let ends = Array.make capacity 0
  let kept = ref 0

  let reset () =
    List.iter
      (fun a ->
        a.ns <- 0;
        a.calls <- 0)
      [ proto; hub ];
    kept := 0;
    in_slice := false

  let record kind t0 t1 =
    if not !in_slice then begin
      let acc = match kind with Protocol -> proto | Hub -> hub in
      acc.ns <- acc.ns + (t1 - t0);
      acc.calls <- acc.calls + 1
    end;
    let i = !kept in
    if i < capacity then begin
      kinds.(i) <- kind;
      starts.(i) <- t0;
      ends.(i) <- t1;
      kept := i + 1
    end

  (* Tab-separated [kind start_ns end_ns parent], times relative to
     [origin]; handler spans are children of the engine.run span. *)
  let write_file path ~origin =
    let oc = open_out path in
    let line name (t0, t1) parent =
      Printf.fprintf oc "%s\t%d\t%d\t%s\n" name (t0 - origin) (t1 - origin) parent
    in
    output_string oc "kind\tstart_ns\tend_ns\tparent\n";
    line "harness.build" !build "-";
    line "engine.run" !run "-";
    for i = 0 to !kept - 1 do
      line (kind_name kinds.(i)) (starts.(i), ends.(i)) "engine.run"
    done;
    close_out oc
end

(* The protocol as the harness sees it, plus the benchmark's probes: the
   latency tracker on every delivery and a span around every handler
   call. *)
module Wrap (P : R.Protocol_intf.S) : R.Protocol_intf.S with type replica = P.replica =
struct
  include P

  let receive_cost ~src cfg cost msg =
    (match !tracker with Some t -> Tracker.observe_msg t msg | None -> ());
    P.receive_cost ~src cfg cost msg

  let on_message r ~src msg =
    if !Spans.on then begin
      let t0 = now_ns () in
      P.on_message r ~src msg;
      Spans.record Spans.Protocol t0 (now_ns ())
    end
    else P.on_message r ~src msg
end
