type exit_reason = Quit | Orphaned | Fatal of exn

let marshal_op (op : Store.op) = Marshal.to_string op []

let unmarshal_op blob : Store.op =
  (* Same-binary fork IPC only: the blob never touches disk and both
     ends are the same executable image, so Marshal is sound here. *)
  Marshal.from_string blob 0

let serve ic oc daemons ~(ctx : Daemon.ctx) =
  let by_name = Hashtbl.create 16 in
  List.iter (fun (d : Daemon.t) -> Hashtbl.replace by_name d.Daemon.name d) daemons;
  let result = ref Quit in
  let running = ref true in
  while !running do
    match Transport.recv_request ic with
    | None ->
      (* Parent went away (crashed or closed us out): nothing useful
         left to do — our writes would go nowhere. *)
      result := Orphaned;
      running := false
    | Some Transport.Quit ->
      result := Quit;
      running := false
    | Some (Transport.Sync blob) -> Store.apply ctx.Daemon.store (unmarshal_op blob)
    | Some (Transport.Deliver { seq; daemon; message }) -> (
      match Hashtbl.find_opt by_name daemon with
      | None -> Transport.send_reply oc (Transport.Fail (seq, "daemon not hosted here"))
      | Some d -> (
        (* Stream each store write out as it happens: if we are killed
           mid-handling, the parent has the prefix — harmless, every op
           is a completed write, and the delivery itself is requeued. *)
        Store.set_sync ctx.Daemon.store
          (Some (fun op -> Transport.send_reply oc (Transport.Op (marshal_op op))));
        let finish () = Store.set_sync ctx.Daemon.store None in
        match d.Daemon.handle ctx message with
        | out ->
          finish ();
          List.iter (fun m -> Transport.send_reply oc (Transport.Pub m)) out;
          Transport.send_reply oc (Transport.Done seq)
        | exception e when Faults.is_fatal e ->
          finish ();
          (* No reply: die so the parent observes a real process
             death (EOF + waitpid), the recovery unit of the fabric. *)
          result := Fatal e;
          running := false
        | exception e ->
          finish ();
          Transport.send_reply oc (Transport.Fail (seq, Printexc.to_string e))))
  done;
  !result
