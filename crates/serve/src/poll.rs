//! Waiting on two sockets at once, without any external crate.
//!
//! As in `signal.rs`, the C entry point is declared directly: Rust's
//! standard library links libc on every Unix target.

use std::io;
use std::os::fd::AsRawFd;

/// C `struct pollfd`.
#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

/// C `nfds_t`: `unsigned long` on Linux, `unsigned int` on the BSDs and
/// macOS.
#[cfg(target_os = "linux")]
type Nfds = std::ffi::c_ulong;
#[cfg(not(target_os = "linux"))]
type Nfds = std::ffi::c_uint;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: Nfds, timeout: i32) -> i32;
}

const POLLIN: i16 = 0x1;

/// Blocks until `a` or `b` has something for a reader (data, end of
/// stream or an error, so that a read will not block) and says which.
pub(crate) fn wait_readable(a: &impl AsRawFd, b: &impl AsRawFd) -> io::Result<[bool; 2]> {
    let mut fds = [a.as_raw_fd(), b.as_raw_fd()].map(|fd| PollFd {
        fd,
        events: POLLIN,
        revents: 0,
    });
    loop {
        // SAFETY: `fds` is a live array of two `struct pollfd`; `poll`
        // reads them and writes only their `revents`. A timeout of -1
        // waits without limit.
        if unsafe { poll(fds.as_mut_ptr(), 2, -1) } >= 0 {
            return Ok(fds.map(|f| f.revents != 0));
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::os::unix::net::UnixStream;

    #[test]
    fn reports_which_socket_is_readable() {
        let (mut a, mut a_peer) = UnixStream::pair().expect("pair");
        let (b, mut b_peer) = UnixStream::pair().expect("pair");
        b_peer.write_all(b"x").expect("write");
        assert_eq!(wait_readable(&a, &b).expect("poll"), [false, true]);
        a_peer.write_all(b"y").expect("write");
        assert_eq!(wait_readable(&a, &b).expect("poll"), [true, true]);
        a.read_exact(&mut [0]).expect("read");
        drop(b_peer);
        // `b` still holds its byte; a closed peer also counts as readable.
        drop(a_peer);
        assert_eq!(wait_readable(&a, &b).expect("poll"), [true, true]);
    }
}
