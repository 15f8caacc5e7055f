type t = {
  mutable hubs : Bytes.t array array;
      (* hubs.(hub).(client): bit [rid] set iff the request is present *)
  extra : (int, int) Hashtbl.t;
      (* request key -> multiplicity - 1, only for multiplicities >= 2 *)
}

let create () = { hubs = [||]; extra = Hashtbl.create 8 }

(* Doubling growth, so a run that numbers rids 0, 1, 2, ... reallocates a
   row or bitset only O(log n) times. *)
let grown_length ~current ~needed = max needed (max 8 (2 * current))

let bits t (r : Message.request) =
  let hub = r.hub and client = r.client in
  if hub < Array.length t.hubs then
    let clients = t.hubs.(hub) in
    if client < Array.length clients then clients.(client) else Bytes.empty
  else Bytes.empty

let mem t (r : Message.request) =
  let b = bits t r in
  let byte = r.rid lsr 3 in
  byte < Bytes.length b
  && Char.code (Bytes.get b byte) land (1 lsl (r.rid land 7)) <> 0

(* The bitset for [r]'s client, grown to hold bit [r.rid]. *)
let bits_for_write t (r : Message.request) =
  let hub = r.hub and client = r.client in
  if hub >= Array.length t.hubs then begin
    let hubs =
      Array.make (grown_length ~current:(Array.length t.hubs) ~needed:(hub + 1)) [||]
    in
    Array.blit t.hubs 0 hubs 0 (Array.length t.hubs);
    t.hubs <- hubs
  end;
  let clients = t.hubs.(hub) in
  let clients =
    if client < Array.length clients then clients
    else begin
      let grown =
        Array.make
          (grown_length ~current:(Array.length clients) ~needed:(client + 1))
          Bytes.empty
      in
      Array.blit clients 0 grown 0 (Array.length clients);
      t.hubs.(hub) <- grown;
      grown
    end
  in
  let b = clients.(client) in
  let byte = r.rid lsr 3 in
  if byte < Bytes.length b then b
  else begin
    let grown =
      Bytes.make (grown_length ~current:(Bytes.length b) ~needed:(byte + 1)) '\000'
    in
    Bytes.blit b 0 grown 0 (Bytes.length b);
    clients.(client) <- grown;
    grown
  end

let add t (r : Message.request) =
  let b = bits_for_write t r in
  let byte = r.rid lsr 3 and bit = 1 lsl (r.rid land 7) in
  let v = Char.code (Bytes.get b byte) in
  if v land bit = 0 then Bytes.set b byte (Char.unsafe_chr (v lor bit))
  else
    let key = Message.request_key r in
    Hashtbl.replace t.extra key
      (1 + Option.value ~default:0 (Hashtbl.find_opt t.extra key))

let remove t (r : Message.request) =
  if mem t r then begin
    let key = Message.request_key r in
    match
      if Hashtbl.length t.extra = 0 then None else Hashtbl.find_opt t.extra key
    with
    | Some c when c > 1 -> Hashtbl.replace t.extra key (c - 1)
    | Some _ -> Hashtbl.remove t.extra key
    | None ->
        let b = bits t r in
        let byte = r.rid lsr 3 in
        Bytes.set b byte
          (Char.unsafe_chr
             (Char.code (Bytes.get b byte) land lnot (1 lsl (r.rid land 7))))
  end

let clear t =
  t.hubs <- [||];
  Hashtbl.reset t.extra
