/* Preloaded into the benchmark and the daemons it spawns
   (LD_PRELOAD, see run.py): fsync and fdatasync return at once, as they
   do on tmpfs.  The daemon's store sits in the checkout, on whatever
   disk holds it; with this its numbers measure the store's own code
   (encoding, write, cementing) and not the disk's flush latency, which
   on a shared disk wanders by milliseconds from minute to minute. */

int fsync(int fd)
{
  (void)fd;
  return 0;
}

int fdatasync(int fd)
{
  (void)fd;
  return 0;
}
